package tenant

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestValidateNames pins the job-name rule: a name is one store
// subdirectory and one route segment, so it must be non-empty, use only
// letters, digits, '-', '_' and '.', and not be made only of dots ("."
// and ".." would put the job's store at or above the server's root).
func TestValidateNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"ads", true},
		{"msg-v2_b", true},
		{"a.b", true},
		{".hidden", true},
		{"..x", true},
		{"", false},
		{".", false},
		{"..", false},
		{"...", false},
		{"bad name", false},
		{"a/b", false},
		{"../up", false},
	} {
		err := JobSpec{Name: tc.name}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%q) = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// writeJobs writes a jobs file into a test directory and returns its path.
func writeJobs(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadSpecs pins the one job-list reader both serving mains call:
// no path is the one default job, a file is a JSON array of specs with
// duration strings, and the decode is strict — an unknown field fails
// naming it instead of silently inheriting the base.
func TestReadSpecs(t *testing.T) {
	specs, err := ReadSpecs("")
	if err != nil || !reflect.DeepEqual(specs, []JobSpec{{Name: "served"}}) {
		t.Fatalf(`ReadSpecs("") = %+v, %v; want the one job {"name":"served"}`, specs, err)
	}
	specs, err = ReadSpecs(writeJobs(t, `[{"name":"x","round_deadline":"90s"},{"name":"y","round_deadline":"4s"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || time.Duration(specs[0].RoundDeadline) != 90*time.Second ||
		time.Duration(specs[1].RoundDeadline) != 4*time.Second {
		t.Fatalf("ReadSpecs = %+v", specs)
	}
	// The object wrapper, bare seconds, unknown fields, trailing data and
	// an empty list are refused, and the error names what is wrong.
	for _, tc := range []struct{ file, want string }{
		{`{"jobs":[{"name":"x"}]}`, "JSON array of specs"},
		{`[{"name":"y","round_deadline":4}]`, "duration string"},
		{`[{"name":"z","target":24}]`, `unknown field "target"`},
		{`[{"name":"z","lowbw_cohort":{"depth":4}}]`, `unknown field "depth"`},
		{`[{"name":"z"}] [{"name":"w"}]`, "after the JSON value"},
		{`[]`, "declares no jobs"},
	} {
		if _, err := ReadSpecs(writeJobs(t, tc.file)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadSpecs(%s) error = %v, want one naming %q", tc.file, err, tc.want)
		}
	}
	if _, err := ReadSpecs(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("ReadSpecs of a missing file succeeded")
	}
}

// fill is an endless reader of one byte value.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// allocatedBy returns the least TotalAlloc growth over three calls of f:
// other goroutines may allocate during one call, not during all three.
func allocatedBy(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestAdminSpecStrictAndBounded: POST /v1/jobs decodes through the same
// strict decoder as the jobs file (an unknown field is a 400 naming it),
// and its body is bounded — a 64 MiB spec is a 413 for a small fraction
// of its size in allocations.
func TestAdminSpecStrictAndBounded(t *testing.T) {
	reg, ts := newTestPlane(t, true, JobSpec{Name: "first"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"name":"typo","target":24}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"target\"`) {
		t.Fatalf("unknown-field spec = %d %s, want 400 naming the field", resp.StatusCode, body)
	}
	if reg.Get("typo") != nil {
		t.Fatal("a spec with an unknown field was registered")
	}

	srv := NewServer(reg, true)
	const huge = 64 << 20
	code := 0
	alloc := allocatedBy(func() {
		body := io.MultiReader(strings.NewReader(`{"name":"`), io.LimitReader(fill('a'), huge))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", body))
		code = rec.Code
	})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("64 MiB spec: HTTP %d, want 413", code)
	}
	if alloc > 4<<20 {
		t.Fatalf("a refused 64 MiB spec allocated %d bytes", alloc)
	}
}

// TestEveryFieldReachesConfig: each JobSpec field but Name and Token —
// and each CohortSpec field under both cohort pointers — set alone to a
// sample value changes the job's coordinator config over Base. A field
// added to the spec without overlay wiring fails here; a field of a kind
// or string meaning this test does not know fails asking for a sample.
func TestEveryFieldReachesConfig(t *testing.T) {
	base := Base()
	want, err := JobSpec{Name: "j"}.CoordConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{
		"Mode": "async", "Model": "B", "Aggregation": "trimmed-mean",
		"Task": "raw64", "Update": "raw64", "Delta": "raw64",
	}
	sample := func(t *testing.T, name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			s, ok := samples[name]
			if !ok {
				t.Fatalf("no sample value for string field %s: add one", name)
			}
			v.SetString(s)
		case reflect.Int, reflect.Int64:
			v.SetInt(3)
		case reflect.Float64:
			v.SetFloat(0.25)
		default:
			t.Fatalf("field %s is a %s: teach this test a sample value", name, v.Type())
		}
	}
	check := func(t *testing.T, spec JobSpec) {
		got, err := spec.CoordConfig(base)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(got, want) {
			t.Fatalf("spec %+v leaves the coordinator config unchanged: the field is not wired", spec)
		}
	}
	st := reflect.TypeOf(JobSpec{})
	for i := range st.NumField() {
		f := st.Field(i)
		if f.Name == "Name" || f.Name == "Token" {
			continue
		}
		if f.Type.Kind() != reflect.Pointer {
			t.Run(f.Name, func(t *testing.T) {
				spec := JobSpec{Name: "j"}
				sample(t, f.Name, reflect.ValueOf(&spec).Elem().Field(i))
				check(t, spec)
			})
			continue
		}
		ct := f.Type.Elem()
		for k := range ct.NumField() {
			t.Run(f.Name+"."+ct.Field(k).Name, func(t *testing.T) {
				spec := JobSpec{Name: "j"}
				cohort := reflect.New(ct)
				sample(t, ct.Field(k).Name, cohort.Elem().Field(k))
				reflect.ValueOf(&spec).Elem().Field(i).Set(cohort)
				check(t, spec)
			})
		}
	}
}

// TestShippedSpecFiles: every spec file the repo ships — the multi-tenant
// example and the CI smokes' files — decodes strictly and registers on
// the serving base, booting each job's coordinator, so a file cannot rot
// while nothing reads it.
func TestShippedSpecFiles(t *testing.T) {
	files, err := filepath.Glob("../../testdata/jobs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../examples/multitenant/jobs.json")
	if len(files) < 2 {
		t.Fatalf("found only %v", files)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			specs, err := ReadSpecs(path)
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry(Base())
			defer reg.Close()
			for _, sp := range specs {
				if _, err := reg.Register(sp); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(reg.Jobs()); got != len(specs) {
				t.Fatalf("%d jobs running, want %d", got, len(specs))
			}
		})
	}
}
