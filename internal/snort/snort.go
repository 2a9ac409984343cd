// Package snort implements the network-intrusion-detection benchmark. It
// generates a Snort-like ruleset (PCRE patterns inside rule options, some
// carrying Snort-specific PCRE modifiers such as U/I/P that scope the
// pattern to an HTTP buffer, and some carrying the isdataat option), a
// synthetic packet-capture byte stream, and the Section-V rule-filtering
// experiment: rules whose patterns are meant to be applied selectively
// match wildly out of context, so excluding modifier rules drops the
// benchmark's report rate ~5x and excluding isdataat rules a further ~2x.
package snort

import (
	"fmt"
	"strings"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
)

// Rule is one Snort rule's automata-relevant content.
type Rule struct {
	SID       int
	PCRE      string      // raw pattern (no slashes)
	Flags     regex.Flags // i / s
	SnortMods string      // Snort-specific PCRE modifiers (U, I, P, H, …)
	Isdataat  bool        // rule carries an isdataat option
}

// HasSnortModifiers reports whether the rule's pattern was written for a
// specific HTTP buffer rather than the raw stream.
func (r Rule) HasSnortModifiers() bool { return r.SnortMods != "" }

// GenConfig sizes the generated ruleset. Defaults mirror the paper's
// population: 2,486 content rules survive filtering, 2,856 carry Snort
// modifiers, 182 carry isdataat.
type GenConfig struct {
	CleanRules    int
	ModifierRules int
	IsdataatRules int
}

// DefaultGenConfig is the paper-scale ruleset.
func DefaultGenConfig() GenConfig {
	return GenConfig{CleanRules: 2486, ModifierRules: 2856, IsdataatRules: 182}
}

// Small vocabulary of HTTP-ish tokens the traffic generator also draws
// from, so modifier rules (written for specific HTTP buffers) match
// constantly when misapplied to the raw stream.
var (
	methods    = []string{"GET", "POST", "PUT", "HEAD"}
	headers    = []string{"Host", "User-Agent", "Accept", "Cookie", "Referer", "Authorization", "Content-Type"}
	uriWords   = []string{"admin", "login", "index", "api", "static", "img", "cgi-bin", "upload", "search", "view"}
	extensions = []string{"php", "html", "asp", "jsp", "cgi", "exe"}
	agents     = []string{"Mozilla", "curl", "Wget", "scanner", "python-requests"}
)

// Generate produces the ruleset. Clean rules carry long random literals
// (plus classes and bounded repeats) that occur rarely; modifier rules are
// short HTTP-buffer patterns; isdataat rules are tiny line-structure
// patterns that fire constantly out of context.
func Generate(cfg GenConfig, seed uint64) []Rule {
	rng := randx.New(seed)
	var rules []Rule
	sid := 1000
	esc := func(s string) string {
		var sb strings.Builder
		for i := 0; i < len(s); i++ {
			c := s[i]
			if strings.IndexByte(`.*+?()[]{}|\^$/`, c) >= 0 {
				sb.WriteByte('\\')
			}
			sb.WriteByte(c)
		}
		return sb.String()
	}
	randLit := func(n int) string {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789_"
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	for i := 0; i < cfg.CleanRules; i++ {
		sid++
		var pat string
		switch rng.Intn(8) {
		case 0: // moderate matcher: specific agent + leading version digit
			// (real content rules legitimately fire now and then; after
			// §V filtering, these are roughly half of remaining reports)
			pat = esc(randx.Pick(rng, agents)) + fmt.Sprintf("%d[0-9]", rng.Intn(10))
		case 1: // exploit-ish two-part payload with a bounded gap
			pat = esc(randLit(20+rng.Intn(16))) + ".{0,16}" + esc(randLit(14+rng.Intn(12))) +
				"\\x2e" + esc(randx.Pick(rng, extensions))
		case 2: // URI attack shape with classes
			pat = esc("/"+randx.Pick(rng, uriWords)+"/") + esc(randLit(16+rng.Intn(12))) +
				"[0-9]{2,4}\\.(" + esc(randx.Pick(rng, extensions)) + ")" +
				"\\?" + esc(randLit(10)) + "=[a-zA-Z0-9%]{4,24}"
		case 3: // binary marker with interior structure
			pat = fmt.Sprintf("\\x%02x\\x%02x%s\\x%02x[\\x80-\\xff]{2,8}%s\\x%02x",
				0x80|rng.Intn(0x7f), rng.Intn(0x20), esc(randLit(16+rng.Intn(10))),
				0x80|rng.Intn(0x7f), esc(randLit(12)), 0x80|rng.Intn(0x7f))
		default: // command-injection-ish
			pat = esc(randLit(12+rng.Intn(8))) + "(=|%3d)" + esc(randLit(14+rng.Intn(10))) +
				"(;|\\|)" + esc(randLit(10)) + "(%0a|\\n)"
		}
		rules = append(rules, Rule{SID: sid, PCRE: pat, Flags: regexFlagsFor(rng)})
	}
	mods := []string{"U", "I", "P", "H"}
	for i := 0; i < cfg.ModifierRules; i++ {
		sid++
		var pat string
		switch rng.Intn(4) {
		case 0: // header-buffer pattern scoped to one agent value
			pat = esc(randx.Pick(rng, headers)+": ") + esc(randx.Pick(rng, agents))
		case 1: // method + URI word
			pat = "(" + esc(randx.Pick(rng, methods)) + ") \\/" + esc(randx.Pick(rng, uriWords))
		case 2: // two-component URI path
			pat = "\\/" + esc(randx.Pick(rng, uriWords)) + "\\/" + esc(randx.Pick(rng, uriWords))
		default: // header + version digit
			pat = esc(randx.Pick(rng, headers)+": ") + "[A-Za-z]+" + fmt.Sprintf("%d", rng.Intn(10))
		}
		rules = append(rules, Rule{SID: sid, PCRE: pat,
			Flags: regexFlagsFor(rng), SnortMods: randx.Pick(rng, mods)})
	}
	for i := 0; i < cfg.IsdataatRules; i++ {
		sid++
		var pat string
		switch rng.Intn(3) {
		case 0: // line structure scoped to one header and agent value
			pat = "\\r\\n" + esc(randx.Pick(rng, headers)) + "\\x3a " + esc(randx.Pick(rng, agents))
		case 1: // status-line boundary followed by a specific header
			pat = "HTTP\\/1\\.1\\r\\n" + esc(randx.Pick(rng, headers))
		default: // request line with a specific URI word
			pat = esc(randx.Pick(rng, methods)) + " \\/" + esc(randx.Pick(rng, uriWords))
		}
		rules = append(rules, Rule{SID: sid, PCRE: pat, Isdataat: true})
	}
	return rules
}

func regexFlagsFor(rng *randx.Rand) regex.Flags {
	var f regex.Flags
	if rng.Intn(3) == 0 {
		f |= regex.CaseInsensitive
	}
	return f
}

// FilterMode selects the Section-V rule populations.
type FilterMode int

const (
	// All compiles every rule (ANMLZoo's mistake).
	All FilterMode = iota
	// NoModifiers excludes rules with Snort-specific PCRE modifiers.
	NoModifiers
	// Filtered additionally excludes isdataat rules — the AutomataZoo
	// benchmark population.
	Filtered
)

func (m FilterMode) String() string {
	switch m {
	case All:
		return "all rules"
	case NoModifiers:
		return "no modifier rules"
	default:
		return "no modifier / no isdataat rules"
	}
}

// Select returns the rules included under mode.
func Select(rules []Rule, mode FilterMode) []Rule {
	var out []Rule
	for _, r := range rules {
		if mode >= NoModifiers && r.HasSnortModifiers() {
			continue
		}
		if mode >= Filtered && r.Isdataat {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Compile builds one automaton from the selected rules; each rule reports
// with its SID. Rules the PCRE-subset compiler rejects are skipped and
// counted (mirroring "every regular expression … that can be successfully
// compiled by the pcre2mnrl tool").
func Compile(rules []Rule) (*automata.Automaton, int, error) {
	return CompileTagged(rules, nil)
}

// CompileTagged is Compile additionally reporting each successfully
// compiled rule's builder state range to tag (when non-nil), so a cost-
// attribution provenance map (internal/attr) can name states by rule.
func CompileTagged(rules []Rule, tag func(name string, lo, hi int)) (*automata.Automaton, int, error) {
	b := automata.NewBuilder()
	skipped := 0
	for _, r := range rules {
		lo := b.NumStates()
		parsed, err := regex.Parse(r.PCRE, r.Flags)
		if err != nil {
			skipped++
			continue
		}
		if _, err := regex.CompileInto(b, parsed, int32(r.SID)); err != nil {
			skipped++
			continue
		}
		if tag != nil {
			tag(fmt.Sprintf("sid:%d", r.SID), lo, b.NumStates())
		}
	}
	a, err := b.Build()
	return a, skipped, err
}
