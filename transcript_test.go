package flint_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateTranscripts = flag.Bool("update", false, "rewrite testdata/transcripts/*.golden from the current binaries")

// transcripts are the offline half's entry points, each run with fixed
// arguments. Their stdout is deterministic and independent of GOMAXPROCS,
// so a refactor of the simulator or the measurement tools that changes no
// printed figure leaves every golden file byte-identical.
var transcripts = []struct {
	name string // golden file stem
	pkg  string // package path, built once
	args []string
}{
	// Longest first, so the slowest run starts before the short ones.
	{"messaging", "./examples/messaging", nil},
	{"flint-experiments", "./cmd/flint-experiments", []string{"-quick"}},
	{"ads", "./examples/ads", nil},
	{"capacity", "./examples/capacity", nil},
	{"flint-bench", "./cmd/flint-bench", []string{"-records", "500"}},
	{"flint-sim", "./cmd/flint-sim", nil},
	{"quickstart", "./examples/quickstart", nil},
	{"search", "./examples/search", nil},
	{"flint-proxy", "./cmd/flint-proxy", nil},
	{"flint-avail", "./cmd/flint-avail", nil},
}

// TestTranscripts builds every offline entry point, runs it and compares
// its stdout byte for byte with testdata/transcripts/<name>.golden.
// Regenerate the golden files with
//
//	go test -count=1 -run '^TestTranscripts$' -update .
//
// The figures are float arithmetic, so the golden bits are amd64's: arm64
// fuses x·y+z into one FMA and rounds differently.
func TestTranscripts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every offline entry point (~80 s)")
	}
	if raceEnabled {
		t.Skip("the instrumented binaries would take many minutes")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden transcripts are recorded on amd64, not %s", runtime.GOARCH)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator))
	for _, tc := range transcripts {
		build.Args = append(build.Args, tc.pkg)
	}
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range transcripts {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, filepath.Base(tc.pkg)), tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.pkg, tc.args, err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", "transcripts", tc.name+".golden")
			if *updateTranscripts {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if line, w, g, ok := firstDiff(want, stdout.Bytes()); !ok {
				t.Errorf("%s differs from %s at line %d:\nwant %q\ngot  %q", tc.pkg, golden, line, w, g)
			}
		})
	}
}

// firstDiff reports the first line (1-based) at which got departs from
// want, with both versions of it; ok is true when they are identical.
func firstDiff(want, got []byte) (line int, w, g string, ok bool) {
	if bytes.Equal(want, got) {
		return 0, "", "", true
	}
	wl := strings.SplitAfter(string(want), "\n")
	gl := strings.SplitAfter(string(got), "\n")
	for i := 0; ; i++ {
		if i < len(wl) {
			w = wl[i]
		} else {
			w = "<end of file>"
		}
		if i < len(gl) {
			g = gl[i]
		} else {
			g = "<end of file>"
		}
		if w != g {
			return i + 1, w, g, false
		}
	}
}
