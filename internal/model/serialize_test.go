package model

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"flint/internal/codec"
)

// TestSaveAllocatesNoBlob: a checkpoint into a buffer made at its length
// is written in place — Save allocates nothing of the parameters' size (a
// blob built first would be 1.5 MB at model B), and the bytes are still
// Frame's header followed by Encode's raw64 blob.
func TestSaveAllocatesNoBlob(t *testing.T) {
	m, err := New(KindB, 3)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(m.Params(), codec.RawF64)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := Frame(KindB)
	if err != nil {
		t.Fatal(err)
	}
	want := append(hdr, blob...)
	bufs := make([]*bytes.Buffer, 4)
	for i := range bufs {
		bufs[i] = bytes.NewBuffer(make([]byte, 0, len(want)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, buf := range bufs {
		if err := Save(m, buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(bufs)); per > 4<<10 {
		t.Fatalf("Save into a %d-byte buffer allocated %d bytes per checkpoint", len(want), per)
	}
	for _, buf := range bufs {
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("Save differs from Frame(kind) + Encode(params, RawF64)")
		}
		if buf.Cap() != len(want) {
			t.Fatalf("Save regrew the buffer to %d bytes", buf.Cap())
		}
	}
}

// TestFrameMatchesSave pins the framing both checkpoint writers share: a
// version buffer behind Frame's header, sealed over a model's params, is
// Save's output byte for byte, and it loads back to the same kind and
// bits.
func TestFrameMatchesSave(t *testing.T) {
	for _, kind := range []Kind{KindA, KindB} {
		m, err := New(kind, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(m, &buf); err != nil {
			t.Fatal(err)
		}
		hdr, err := Frame(kind)
		if err != nil {
			t.Fatal(err)
		}
		vb := codec.NewVersionBuf(hdr, m.NumParams())
		copy(vb.Params(), m.Params())
		vb.Seal()
		framed := vb.Bytes()
		if !bytes.Equal(framed, buf.Bytes()) {
			t.Fatalf("%s: the sealed version buffer differs from Save (%d vs %d bytes)", kind, len(framed), buf.Len())
		}
		back, err := Load(bytes.NewReader(framed))
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind() != kind {
			t.Fatalf("loaded kind %s, want %s", back.Kind(), kind)
		}
		for i, x := range back.Params() {
			if math.Float64bits(x) != math.Float64bits(m.Params()[i]) {
				t.Fatalf("%s: param %d differs after Frame → Load", kind, i)
			}
		}
	}
	if _, err := Frame(""); err == nil {
		t.Fatal("Frame accepted an empty kind")
	}
}

// TestLoadCorruptCheckpoint checks that damage at each framing layer
// yields a clear, identifying error.
func TestLoadCorruptCheckpoint(t *testing.T) {
	m, err := New(KindA, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(m, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 9
			return b
		}(), "unsupported checkpoint format version"},
		{"truncated header", good[:5], "truncated checkpoint header"},
		{"flipped tensor byte", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0xFF
			return b
		}(), "corrupt checkpoint tensor"},
		{"not a checkpoint at all", []byte("definitely not a checkpoint"), "unrecognized checkpoint"},
	}
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.blob))
		if err == nil {
			t.Errorf("%s: load succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
