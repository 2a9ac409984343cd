package charset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmptyAndAll(t *testing.T) {
	var e Set
	if !e.IsEmpty() || e.Count() != 0 {
		t.Fatalf("zero Set should be empty, count=%d", e.Count())
	}
	a := All()
	if !a.IsAll() || a.Count() != 256 {
		t.Fatalf("All() should match 256 symbols, count=%d", a.Count())
	}
	for c := 0; c < 256; c++ {
		if e.Contains(byte(c)) {
			t.Fatalf("empty set contains %d", c)
		}
		if !a.Contains(byte(c)) {
			t.Fatalf("all set missing %d", c)
		}
	}
}

func TestSingleAndOf(t *testing.T) {
	s := Single('x')
	if s.Count() != 1 || !s.Contains('x') || s.Contains('y') {
		t.Fatalf("Single('x') wrong: %v", s)
	}
	o := Of('a', 'b', 'z')
	if o.Count() != 3 || !o.Contains('a') || !o.Contains('b') || !o.Contains('z') {
		t.Fatalf("Of wrong: %v", o)
	}
}

func TestRange(t *testing.T) {
	r := Range('a', 'f')
	if r.Count() != 6 {
		t.Fatalf("Range count=%d", r.Count())
	}
	for c := byte('a'); c <= 'f'; c++ {
		if !r.Contains(c) {
			t.Fatalf("range missing %c", c)
		}
	}
	if r.Contains('g') || r.Contains('`') {
		t.Fatal("range has extras")
	}
	if !Range('z', 'a').IsEmpty() {
		t.Fatal("inverted range should be empty")
	}
	full := Range(0, 255)
	if !full.IsAll() {
		t.Fatal("Range(0,255) should be All")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Range('a', 'm')
	b := Range('h', 'z')
	u := a.Union(b)
	if u.Count() != 26 {
		t.Fatalf("union count=%d", u.Count())
	}
	i := a.Intersect(b)
	if i.Count() != 6 { // h..m
		t.Fatalf("intersect count=%d", i.Count())
	}
	m := a.Minus(b)
	if m.Count() != 7 { // a..g
		t.Fatalf("minus count=%d", m.Count())
	}
	n := a.Negate()
	if n.Count() != 256-13 {
		t.Fatalf("negate count=%d", n.Count())
	}
	if a.Negate().Negate() != a {
		t.Fatal("double negation not identity")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	s := Of(3, 1, 200, 77)
	bs := s.Bytes()
	want := []byte{1, 3, 77, 200}
	if len(bs) != len(want) {
		t.Fatalf("Bytes len=%d", len(bs))
	}
	for i := range bs {
		if bs[i] != want[i] {
			t.Fatalf("Bytes[%d]=%d want %d", i, bs[i], want[i])
		}
	}
}

func TestCaseFold(t *testing.T) {
	s := FromString("aB3").CaseFold()
	for _, c := range []byte{'a', 'A', 'b', 'B', '3'} {
		if !s.Contains(c) {
			t.Fatalf("casefold missing %c", c)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("casefold count=%d", s.Count())
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		s    Set
		want string
	}{
		{All(), "*"},
		{Set{}, "[]"},
		{Single('a'), "a"},
		{Single(0), "\\x00"},
		{Range('a', 'c'), "[a-c]"},
		{Of('a', 'b'), "[a b]"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.s.Bytes(), got, c.want)
		}
	}
}

func TestNamedClasses(t *testing.T) {
	if Digits().Count() != 10 {
		t.Fatalf("\\d count=%d", Digits().Count())
	}
	if Word().Count() != 63 {
		t.Fatalf("\\w count=%d", Word().Count())
	}
	if Space().Count() != 6 {
		t.Fatalf("\\s count=%d", Space().Count())
	}
	if NotNewline().Count() != 255 || NotNewline().Contains('\n') {
		t.Fatal(". class wrong")
	}
}

// Property: union is commutative and associative; De Morgan holds.
func TestQuickAlgebraLaws(t *testing.T) {
	gen := func(r *rand.Rand) Set {
		return Set{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		for i := range vals {
			vals[i] = reflect.ValueOf(gen(r))
		}
	}}
	comm := func(a, b Set) bool { return a.Union(b) == b.Union(a) }
	if err := quick.Check(comm, cfg); err != nil {
		t.Errorf("union not commutative: %v", err)
	}
	deMorgan := func(a, b Set) bool {
		return a.Union(b).Negate() == a.Negate().Intersect(b.Negate())
	}
	if err := quick.Check(deMorgan, cfg); err != nil {
		t.Errorf("De Morgan fails: %v", err)
	}
	absorb := func(a, b Set) bool { return a.Union(a.Intersect(b)) == a }
	if err := quick.Check(absorb, cfg); err != nil {
		t.Errorf("absorption fails: %v", err)
	}
	minus := func(a, b Set) bool { return a.Minus(b) == a.Intersect(b.Negate()) }
	if err := quick.Check(minus, cfg); err != nil {
		t.Errorf("minus law fails: %v", err)
	}
}

// Property: Count equals number of Contains hits equals len(Bytes).
func TestQuickCountConsistency(t *testing.T) {
	f := func(w0, w1, w2, w3 uint64) bool {
		s := Set{w0, w1, w2, w3}
		n := 0
		for c := 0; c < 256; c++ {
			if s.Contains(byte(c)) {
				n++
			}
		}
		return n == s.Count() && n == len(s.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInternTable(t *testing.T) {
	tab := NewTable()
	h1 := tab.Intern(Single('a'))
	h2 := tab.Intern(Single('b'))
	h3 := tab.Intern(Single('a'))
	if h1 == h2 {
		t.Fatal("distinct sets share handle")
	}
	if h1 != h3 {
		t.Fatal("equal sets got distinct handles")
	}
	if tab.Len() != 2 {
		t.Fatalf("len=%d", tab.Len())
	}
	if !tab.Set(h1).Contains('a') || !tab.Set(h2).Contains('b') {
		t.Fatal("lookup wrong")
	}
}

func TestInternTableZeroValue(t *testing.T) {
	var tab Table
	h := tab.Intern(All())
	if !tab.Set(h).IsAll() {
		t.Fatal("zero-value table broken")
	}
}
