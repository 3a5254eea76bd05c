package model

import (
	"bytes"
	"strings"
	"testing"
)

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
