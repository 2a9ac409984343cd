package automatazoo_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// Every program under examples/ prints exactly its checked-in golden,
// examples/testdata/<name>.golden: the examples are the library's
// end-to-end tour and their stdout is deterministic, so a library change
// that alters what one prints shows up here. Regenerate a golden after an
// intentional output change with
//
//	go run ./examples/<name> > examples/testdata/<name>.golden
func TestExamplesMatchGoldens(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, ent := range entries {
		if !ent.IsDir() || ent.Name() == "testdata" {
			continue
		}
		name := ent.Name()
		want, err := os.ReadFile(filepath.Join("examples", "testdata", name+".golden"))
		if err != nil {
			t.Errorf("examples/%s has no golden: %v", name, err)
			continue
		}
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name))
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Errorf("examples/%s: %v\n%s", name, err, stderr.Bytes())
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("examples/%s stdout differs from its golden:\n--- got\n%s--- want\n%s", name, got, want)
		}
		ran++
	}
	if ran == 0 {
		t.Error("found no example program under examples/")
	}
}
