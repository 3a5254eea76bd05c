package transport

import (
	"slices"
	"strings"
	"testing"

	"flint/internal/codec"
)

func mustNegotiator(t *testing.T, cfg Config) *Negotiator {
	t.Helper()
	n, err := NewNegotiator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.Task != codec.F32 || cfg.Default.Update != codec.Q8 || cfg.Default.Delta != codec.Q8 {
		t.Fatalf("default cohort = %+v", cfg.Default)
	}
	if cfg.LowBW.Task.Kind != codec.KindTopK || cfg.LowBW.Update != codec.Q8 || cfg.LowBW.Delta.Kind != codec.KindTopK {
		t.Fatalf("lowbw cohort = %+v", cfg.LowBW)
	}
	if cfg.DeltaHistory != DefaultDeltaHistory {
		t.Fatalf("delta history = %d", cfg.DeltaHistory)
	}
}

func TestConfigRejectsInvalidScheme(t *testing.T) {
	_, err := Config{Default: Policy{Task: codec.Scheme{Kind: 99}}}.WithDefaults()
	if err == nil || !strings.Contains(err.Error(), "default cohort") {
		t.Fatalf("invalid scheme accepted: %v", err)
	}
	if _, err := NewNegotiator(Config{LowBW: Policy{Update: codec.Scheme{Kind: 200}}}); err == nil {
		t.Fatal("NewNegotiator accepted invalid lowbw scheme")
	}
}

func TestClassifyCohorts(t *testing.T) {
	n := mustNegotiator(t, Config{})
	if c := n.Classify(Device{Platform: "Android", WiFi: true}); c != CohortDefault {
		t.Fatalf("wifi device cohort = %q", c)
	}
	if c := n.Classify(Device{Platform: "iOS", WiFi: false}); c != CohortLowBW {
		t.Fatalf("cellular device cohort = %q", c)
	}
}

// TestClassifyCohortPin: a scheduler-computed cohort pin overrides the
// radio label in both directions; an unknown pin (a newer scheduler's
// cohort this build doesn't know) degrades to the label rule.
func TestClassifyCohortPin(t *testing.T) {
	n := mustNegotiator(t, Config{})
	if c := n.Classify(Device{WiFi: true, Cohort: CohortLowBW}); c != CohortLowBW {
		t.Fatalf("slow WiFi pin: cohort = %q", c)
	}
	if c := n.Classify(Device{WiFi: false, Cohort: CohortDefault}); c != CohortDefault {
		t.Fatalf("fast cellular pin: cohort = %q", c)
	}
	if c := n.Classify(Device{WiFi: false, Cohort: "hyperband"}); c != CohortLowBW {
		t.Fatalf("unknown pin: cohort = %q, want label fallback", c)
	}
	// The pin carries through negotiation to the policy.
	dec := n.Negotiate(Device{WiFi: true, Cohort: CohortLowBW, Accept: AllKinds()})
	if dec.Cohort != CohortLowBW || dec.Policy != n.cfg.LowBW {
		t.Fatalf("pinned negotiation = %+v", dec)
	}
}

// TestNegotiateEmptyAccept (negotiation edge case): an empty-but-non-nil
// capability list means "advertised, nothing usable" — every slot falls
// back to f32 and the decision is flagged, unlike the nil legacy case.
func TestNegotiateEmptyAccept(t *testing.T) {
	n := mustNegotiator(t, Config{})
	dec := n.Negotiate(Device{WiFi: true, Accept: []codec.Kind{}})
	if !dec.Fallback {
		t.Fatalf("empty accept list not flagged: %+v", dec)
	}
	if dec.Policy.Task != codec.F32 || dec.Policy.Update != codec.F32 || dec.Policy.Delta != codec.F32 {
		t.Fatalf("empty-list policy = %+v", dec.Policy)
	}
}

// TestParseAcceptGarbage: hostile or nonsense lists degrade to the
// empty-but-non-nil list (which Negotiate then serves as f32 fallback),
// never an error or a nil that would read as "legacy client".
func TestParseAcceptGarbage(t *testing.T) {
	for _, in := range []string{",,,", " , ", "🚀,💾", "q8:::9", "f3 2", ":::"} {
		kinds, _ := ParseAccept(in)
		if kinds == nil {
			t.Fatalf("ParseAccept(%q) returned nil", in)
		}
		for _, k := range kinds {
			switch k {
			case codec.KindRawF64, codec.KindF32, codec.KindQ8, codec.KindTopK:
			default:
				t.Fatalf("ParseAccept(%q) produced unknown kind %v", in, k)
			}
		}
	}
	// "q8:::9" cuts at the first colon: the q8 capability survives.
	if kinds, _ := ParseAccept("q8:::9"); len(kinds) != 1 || kinds[0] != codec.KindQ8 {
		t.Fatalf("parameterized garbage: %v", kinds)
	}
}

func TestPolicyFor(t *testing.T) {
	cfg, err := Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PolicyFor(CohortLowBW) != cfg.LowBW {
		t.Fatal("PolicyFor(lowbw) != LowBW policy")
	}
	if cfg.PolicyFor(CohortDefault) != cfg.Default || cfg.PolicyFor("unknown") != cfg.Default {
		t.Fatal("PolicyFor default/unknown != Default policy")
	}
}

// TestNegotiateLegacyClient pins backward compatibility: a device that
// never advertised capabilities (nil Accept) gets the unfiltered cohort
// policy, exactly what pre-negotiation servers served.
func TestNegotiateLegacyClient(t *testing.T) {
	n := mustNegotiator(t, Config{})
	dec := n.Negotiate(Device{WiFi: true})
	if dec.Cohort != CohortDefault || dec.Fallback {
		t.Fatalf("decision = %+v", dec)
	}
	if dec.Policy != n.cfg.Default {
		t.Fatalf("legacy policy filtered: %+v", dec.Policy)
	}
}

// TestNegotiateHonorsAccept: the cohort's preferred schemes survive when
// advertised, and slots outside the list degrade to f32 within it.
func TestNegotiateHonorsAccept(t *testing.T) {
	n := mustNegotiator(t, Config{})
	full := n.Negotiate(Device{WiFi: true, Accept: AllKinds()})
	if full.Fallback || full.Policy != n.cfg.Default {
		t.Fatalf("full-capability decision = %+v", full)
	}

	// A device that can only decode f32: every slot degrades to f32,
	// and that is a clean downgrade, not a fallback.
	f32only := n.Negotiate(Device{WiFi: false, Accept: []codec.Kind{codec.KindF32}})
	if f32only.Cohort != CohortLowBW || f32only.Fallback {
		t.Fatalf("f32-only decision = %+v", f32only)
	}
	if f32only.Policy.Task != codec.F32 || f32only.Policy.Update != codec.F32 || f32only.Policy.Delta != codec.F32 {
		t.Fatalf("f32-only policy = %+v", f32only.Policy)
	}

	// q8+f32: the lowbw cohort's topk slots degrade to f32, but q8
	// slots are honored.
	partial := n.Negotiate(Device{WiFi: false, Accept: []codec.Kind{codec.KindQ8, codec.KindF32}})
	if partial.Fallback {
		t.Fatalf("partial decision flagged fallback: %+v", partial)
	}
	if partial.Policy.Task != codec.F32 || partial.Policy.Update != codec.Q8 || partial.Policy.Delta != codec.F32 {
		t.Fatalf("partial policy = %+v", partial.Policy)
	}
}

// TestNegotiateUnknownSchemeFallsBack is the satellite contract: a device
// advertising only schemes this server has never heard of still gets a
// servable answer — f32 — and the decision is flagged for the counter.
func TestNegotiateUnknownSchemeFallsBack(t *testing.T) {
	n := mustNegotiator(t, Config{})
	kinds, unknown := ParseAccept("zstd-tensor, brotli9")
	if unknown != 2 || len(kinds) != 0 || kinds == nil {
		t.Fatalf("ParseAccept = %v (unknown %d)", kinds, unknown)
	}
	dec := n.Negotiate(Device{WiFi: true, Accept: kinds})
	if !dec.Fallback {
		t.Fatalf("unusable accept list not flagged: %+v", dec)
	}
	if dec.Policy.Task != codec.F32 || dec.Policy.Update != codec.F32 || dec.Policy.Delta != codec.F32 {
		t.Fatalf("fallback policy = %+v", dec.Policy)
	}
}

func TestParseAccept(t *testing.T) {
	kinds, unknown := ParseAccept("f32, q8,topk:128,raw64,f32,mystery")
	if unknown != 1 {
		t.Fatalf("unknown = %d", unknown)
	}
	want := []codec.Kind{codec.KindF32, codec.KindQ8, codec.KindTopK, codec.KindRawF64}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("kinds[%d] = %v, want %v", i, kinds[i], k)
		}
	}
	if kinds, unknown := ParseAccept(""); len(kinds) != 0 || unknown != 0 {
		t.Fatalf("empty list: %v, %d", kinds, unknown)
	}
}

func TestAcceptRoundTrip(t *testing.T) {
	rendered := FormatAccept(AllKinds())
	kinds, unknown := ParseAccept(rendered)
	if unknown != 0 || len(kinds) != len(AllKinds()) {
		t.Fatalf("round trip of %q = %v (unknown %d)", rendered, kinds, unknown)
	}
	for i, k := range AllKinds() {
		if kinds[i] != k {
			t.Fatalf("round trip order: %v vs %v", kinds, AllKinds())
		}
	}
}

func TestDeltaSchemes(t *testing.T) {
	cfg, err := Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: q8 (default cohort) and topk (lowbw) are distinct.
	got := cfg.DeltaSchemes()
	if len(got) != 2 || got[0] != cfg.Default.Delta || got[1] != cfg.LowBW.Delta {
		t.Fatalf("DeltaSchemes() = %v", got)
	}
	// Identical cohort deltas dedupe to one pre-encode target.
	same := Config{
		Default: Policy{Task: codec.F32, Update: codec.Q8, Delta: codec.Q8},
		LowBW:   Policy{Task: codec.F32, Update: codec.Q8, Delta: codec.Q8},
	}
	if got := same.DeltaSchemes(); len(got) != 1 || got[0] != codec.Q8 {
		t.Fatalf("deduped DeltaSchemes() = %v", got)
	}
}

func TestPerCohortDeltaDepth(t *testing.T) {
	// Un-defaulted zero config: both cohorts inherit the package default
	// window, mirroring WithDefaults.
	var zero Config
	if d := zero.DepthFor(CohortDefault); d != DefaultDeltaHistory {
		t.Fatalf("zero config default depth = %d, want %d", d, DefaultDeltaHistory)
	}
	// A cohort override wins over the global; the other cohort inherits.
	cfg := Config{DeltaHistory: 4, LowBW: Policy{DeltaDepth: 16}}
	if d := cfg.DepthFor(CohortDefault); d != 4 {
		t.Fatalf("default cohort depth = %d, want 4", d)
	}
	if d := cfg.DepthFor(CohortLowBW); d != 16 {
		t.Fatalf("lowbw cohort depth = %d, want 16", d)
	}
	// The ring is sized to the deepest cohort so every admissible base
	// is answerable.
	if r := cfg.RingDepth(); r != 16 {
		t.Fatalf("RingDepth = %d, want 16", r)
	}
	// Negative disables: per cohort via DeltaDepth, globally via
	// DeltaHistory (0 reports the window off, never negative).
	off := Config{DeltaHistory: 8, Default: Policy{DeltaDepth: -1}}
	if d := off.DepthFor(CohortDefault); d != 0 {
		t.Fatalf("disabled cohort depth = %d, want 0", d)
	}
	if d := off.DepthFor(CohortLowBW); d != 8 {
		t.Fatalf("lowbw depth beside a disabled default = %d, want 8", d)
	}
	allOff := Config{DeltaHistory: -1}
	if allOff.RingDepth() != 0 {
		t.Fatalf("globally disabled RingDepth = %d, want 0", allOff.RingDepth())
	}
	if got := allOff.DeltaSchemes(); len(got) != 0 {
		t.Fatalf("disabled config still pre-encodes %v", got)
	}
	// A single disabled cohort drops out of the pre-encode set.
	half := Config{
		DeltaHistory: 8,
		Default:      Policy{Delta: codec.Q8},
		LowBW:        Policy{Delta: codec.Scheme{Kind: codec.KindTopK}, DeltaDepth: -1},
	}
	if got := half.DeltaSchemes(); len(got) != 1 || got[0] != codec.Q8 {
		t.Fatalf("half-disabled DeltaSchemes = %v", got)
	}
}

// referenceParseAccept is the split/lowercase/map parser ParseAccept
// replaced, kept as its oracle.
func referenceParseAccept(list string) (kinds []codec.Kind, unknown int) {
	kindNames := map[string]codec.Kind{
		"raw64": codec.KindRawF64,
		"f32":   codec.KindF32,
		"q8":    codec.KindQ8,
		"topk":  codec.KindTopK,
	}
	kinds = []codec.Kind{}
	seen := map[codec.Kind]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		if base, _, ok := strings.Cut(name, ":"); ok {
			name = base
		}
		k, ok := kindNames[name]
		if !ok {
			unknown++
			continue
		}
		if !seen[k] {
			seen[k] = true
			kinds = append(kinds, k)
		}
	}
	return kinds, unknown
}

// FuzzParseAccept holds ParseAccept and AcceptMask to the reference
// parser: the same kinds in the same order, the same unknown count, and a
// mask with exactly those kinds' bits.
func FuzzParseAccept(f *testing.F) {
	for _, s := range []string{
		"", ",", "f32,q8,topk,raw64", "f32, q8,topk:128,raw64,f32,mystery", " F32 ,Q8", "TOPK:9,topk",
		"topK", "top\u212a", "\u0130", "q8:::9", ":::", "🚀,💾", "f3 2", "raw64\xff", "\u00a0q8\u00a0", "q8\x85", "RAW64,,,f32:",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		kinds, unknown := ParseAccept(list)
		want, wantUnknown := referenceParseAccept(list)
		if kinds == nil || !slices.Equal(kinds, want) || unknown != wantUnknown {
			t.Fatalf("ParseAccept(%q) = %v, %d; reference %v, %d", list, kinds, unknown, want, wantUnknown)
		}
		var wantMask uint8
		for _, k := range want {
			wantMask |= 1 << k
		}
		if mask, n := AcceptMask(list); mask != wantMask || n != wantUnknown {
			t.Fatalf("AcceptMask(%q) = %08b, %d; want %08b, %d", list, mask, n, wantMask, wantUnknown)
		}
	})
}
