package coord

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// scriptedExchange is a tier leader whose every response advances the
// tier by one version and carries whatever install the test's current
// script builds from the shard's partial.
type scriptedExchange struct {
	script atomic.Pointer[func(partial []byte) []byte]
}

func (x *scriptedExchange) SubmitPartial(pc PartialCommit) (GlobalInstall, error) {
	return GlobalInstall{Version: pc.BaseVersion + 1, Blob: (*x.script.Load())(pc.Blob)}, nil
}

func mustEncode(t *testing.T, v tensor.Vector, s codec.Scheme, delta bool) []byte {
	t.Helper()
	enc := codec.Encode
	if delta {
		enc = codec.EncodeDelta
	}
	blob, err := enc(v, s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestMalformedInstallRejected: an install that is not a raw64, non-delta
// blob of the model's dimension — or fails its checksum — counts
// global_install_error and drops the round without touching the params,
// the version or the store; the next well-formed install still lands.
func TestMalformedInstallRejected(t *testing.T) {
	cfg := syncTestConfig()
	cfg.TargetUpdates, cfg.Quorum, cfg.OverCommit = 2, 2, 1
	x := &scriptedExchange{}
	cfg.Exchange = x
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	name := c.Config().ModelName
	initial := c.serving.Load().bcast.published.Clone()
	decode := func(partial []byte) tensor.Vector {
		v, _, err := codec.Decode(partial)
		if err != nil {
			t.Error(err)
		}
		return v
	}
	cases := []struct {
		name  string
		build func(partial []byte) []byte
	}{
		{"crc", func(p []byte) []byte {
			b := slices.Clone(p)
			b[len(b)-1] ^= 0xFF
			return b
		}},
		{"f32", func(p []byte) []byte { return mustEncode(t, decode(p), codec.F32, false) }},
		{"q8", func(p []byte) []byte { return mustEncode(t, decode(p), codec.Q8, false) }},
		{"delta", func(p []byte) []byte { return mustEncode(t, decode(p), codec.RawF64, true) }},
		{"dim", func(p []byte) []byte { return mustEncode(t, tensor.NewVector(c.dim+1), codec.RawF64, false) }},
	}
	round := func() {
		for id := int64(1); id <= 2; id++ {
			submitFor(t, c, id, join(t, c, id))
		}
	}
	for i, tc := range cases {
		build := tc.build
		x.script.Store(&build)
		round()
		eventually(t, 5*time.Second, func() bool {
			return c.Counters().Counter("round_publish_error").Value() == int64(i+1)
		}, tc.name+": malformed install was not rejected")
		// The rejection and the successor round happen under mu; taking it
		// here waits them out.
		c.mu.Lock()
		params := c.serving.Load().bcast.published
		c.mu.Unlock()
		if got := c.Counters().Counter("global_install_error").Value(); got != int64(i+1) {
			t.Fatalf("%s: global_install_error = %d, want %d", tc.name, got, i+1)
		}
		if v := c.Version(); v != 1 {
			t.Fatalf("%s: version moved to %d", tc.name, v)
		}
		if vs := c.Store().Versions(name); !slices.Equal(vs, []int{1}) {
			t.Fatalf("%s: store holds versions %v, want [1]", tc.name, vs)
		}
		for j := range params {
			if math.Float64bits(params[j]) != math.Float64bits(initial[j]) {
				t.Fatalf("%s: param %d changed by a rejected install", tc.name, j)
			}
		}
	}
	var partial tensor.Vector
	good := func(p []byte) []byte {
		partial = decode(p)
		return p
	}
	x.script.Store(&good)
	round()
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("global_installs").Value() == 1
	}, "good install after rejections never landed")
	if v := c.Version(); v != 2 {
		t.Fatalf("good install published v%d, want v2", v)
	}
	m, err := c.Store().Get(name, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range m.Params() {
		if math.Float64bits(p) != math.Float64bits(partial[j]) {
			t.Fatalf("stored v2 param %d = %v, want the install's %v", j, p, partial[j])
		}
	}
}
