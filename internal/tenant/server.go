package tenant

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"flint/internal/coord"
	"flint/internal/metrics"
)

// JobStatus is one job's row in the fleet status rollup: enough to see
// every tenant's training progress at a glance without the per-job
// status page's full scheduler and counter detail.
type JobStatus struct {
	Name    string      `json:"name"`
	Mode    coord.Mode  `json:"mode"`
	Model   string      `json:"model_kind"`
	Version int         `json:"version"`
	Round   uint64      `json:"round"`
	Phase   coord.Phase `json:"phase"`
	// RoundsCommitted / UpdatesAggregated are the job's lifetime
	// training throughput.
	RoundsCommitted   int64 `json:"rounds_committed"`
	UpdatesAggregated int64 `json:"updates_aggregated"`
	// DevicesKnown/Live are the job's registry census; MaxDevices its
	// effective quota (0 = unlimited) and QuotaRejected how many check-ins the
	// quota turned away.
	DevicesKnown  int   `json:"devices_known"`
	DevicesLive   int   `json:"devices_live"`
	MaxDevices    int   `json:"max_devices,omitempty"`
	QuotaRejected int64 `json:"quota_rejected,omitempty"`
	// Protected reports whether the job requires a bearer token (the
	// token itself is never serialized); AuthRejected counts requests
	// that failed it.
	Protected    bool  `json:"protected,omitempty"`
	AuthRejected int64 `json:"auth_rejected,omitempty"`
}

// FleetRollup is the cross-job section of /v1/status: per-plane sums
// over every tenant.
type FleetRollup struct {
	Jobs              int   `json:"jobs"`
	DevicesKnown      int   `json:"devices_known"`
	DevicesLive       int   `json:"devices_live"`
	RoundsCommitted   int64 `json:"rounds_committed"`
	UpdatesAggregated int64 `json:"updates_aggregated"`
	// Counters is the key-wise sum of every job's counter set plus the
	// tenant plane's routing counters.
	Counters map[string]int64 `json:"counters"`
}

// StatusReport is the multi-tenant /v1/status payload. It embeds the
// default job's full report — JSON-inlined, so single-tenant dashboards
// and the fleet generator keep reading the fields they always have —
// and adds the per-job rollup sections.
type StatusReport struct {
	coord.StatusReport
	// DefaultJob names the tenant the embedded report (and every bare
	// /v1/* request) describes.
	DefaultJob string `json:"default_job"`
	// Jobs summarizes every tenant by name.
	Jobs map[string]JobStatus `json:"jobs"`
	// Fleet sums training progress and counters across tenants.
	Fleet FleetRollup `json:"fleet"`
}

// Server routes the multi-tenant /v1 API:
//
//	POST /v1/jobs                admin: register a job from a spec body
//	GET  /v1/jobs                list job summaries
//	ANY  /v1/jobs/<job>/<rest>   auth, then the job's /v1/<rest> handler
//	GET  /v1/jobs/<job>          the job's summary row
//	GET  /v1/status              fleet rollup (embeds the default job)
//	ANY  /v1/<rest>              default-job alias (backward compat)
//
// Auth is per-job: a job with a token rejects wrong/missing tokens with
// 401 before any coordinator state is touched; unknown job names are
// 404 at the tenant plane.
type Server struct {
	reg *Registry
	// admin enables POST /v1/jobs; off by default so an exposed server
	// doesn't accept spec registration from the fleet network.
	admin bool
}

// NewServer wraps a job registry in the multi-tenant router. admin
// enables the job-registration endpoint.
func NewServer(reg *Registry, admin bool) *Server {
	return &Server{reg: reg, admin: admin}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/v1/jobs":
		s.handleJobs(w, r)
	case strings.HasPrefix(path, "/v1/jobs/"):
		s.routeJob(w, r, strings.TrimPrefix(path, "/v1/jobs/"))
	case path == "/v1/status" && r.Method == http.MethodGet:
		s.handleStatus(w, r)
	default:
		// Default-job alias: the bare /v1 API a single-tenant client
		// speaks, including its auth when the default job carries one.
		job := s.reg.Default()
		if job == nil {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no jobs registered"))
			return
		}
		if !s.authed(w, r, job) {
			return
		}
		job.handler.ServeHTTP(w, r)
	}
}

// routeJob authenticates and delegates one /v1/jobs/<job>/<rest>
// request to the job's coordinator handler, rewriting the path to the
// bare /v1/<rest> form the handler's mux understands.
func (s *Server) routeJob(w http.ResponseWriter, r *http.Request, sub string) {
	name, rest, _ := strings.Cut(sub, "/")
	job := s.reg.Get(name)
	if job == nil {
		s.reg.counters.Counter("route_unknown_job").Inc()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", name))
		return
	}
	if !s.authed(w, r, job) {
		return
	}
	if rest == "" {
		// GET /v1/jobs/<job> — the summary row, handy for scripts.
		writeJSON(w, http.StatusOK, jobStatus(job, job.Coord.Status()))
		return
	}
	// Shallow-clone with a rewritten path (the http.StripPrefix idiom):
	// the delegate must not observe the tenant prefix, and the original
	// request must stay untouched for middleware up-stack.
	r2 := new(http.Request)
	*r2 = *r
	r2.URL = new(url.URL)
	*r2.URL = *r.URL
	r2.URL.Path = "/v1/" + rest
	r2.URL.RawPath = ""
	job.handler.ServeHTTP(w, r2)
}

// authed enforces the job's bearer token (when it has one). Wrong or
// missing tokens are rejected with 401 and counted against the job —
// cross-tenant probing shows up on the tenant being probed — plus the
// tenant plane's own rollup counter.
func (s *Server) authed(w http.ResponseWriter, r *http.Request, job *Job) bool {
	want := job.Spec.Token
	if want == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if ok && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1 {
		return true
	}
	job.Coord.Counters().Counter("auth_rejected_token").Inc()
	s.reg.counters.Counter("auth_rejected_token").Inc()
	w.Header().Set("WWW-Authenticate", `Bearer realm="flint-job"`)
	writeError(w, http.StatusUnauthorized, fmt.Errorf("job %q requires a valid bearer token", job.Spec.Name))
	return false
}

// handleJobs serves the /v1/jobs collection: GET lists summaries, POST
// (admin only) registers a new job from a JobSpec body.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		jobs := s.reg.Jobs()
		out := make([]JobStatus, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, jobStatus(j, j.Coord.Status()))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		if !s.admin {
			writeError(w, http.StatusForbidden, fmt.Errorf("job registration is disabled (start the server with -admin)"))
			return
		}
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
			return
		}
		job, err := s.reg.Register(spec)
		if err != nil {
			code := http.StatusBadRequest
			if strings.Contains(err.Error(), "already registered") {
				code = http.StatusConflict
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusCreated, jobStatus(job, job.Coord.Status()))
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// jobStatus condenses job j's full status report st into its rollup row.
func jobStatus(j *Job, st coord.StatusReport) JobStatus {
	return JobStatus{
		Name:              j.Spec.Name,
		Mode:              st.Mode,
		Model:             string(st.ModelKind),
		Version:           st.Version,
		Round:             st.Round.ID,
		Phase:             st.Round.Phase,
		RoundsCommitted:   st.Counters["rounds_committed"],
		UpdatesAggregated: st.Counters["updates_aggregated"],
		DevicesKnown:      st.Devices.Known,
		DevicesLive:       st.Devices.Live,
		MaxDevices:        j.Coord.Config().MaxDevices,
		QuotaRejected:     st.Counters["checkin_rejected_quota"],
		Protected:         j.Spec.Token != "",
		AuthRejected:      st.Counters["auth_rejected_token"],
	}
}

// handleStatus renders the fleet rollup: the default job's full report
// inlined for backward compatibility, plus every job's summary row and
// the cross-tenant sums. O(sum of fleets) — a dashboard endpoint, like
// every coordinator's own status page. Each job's Status is taken once,
// so the embedded report and the default job's row agree.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jobs := s.reg.Jobs()
	if len(jobs) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no jobs registered"))
		return
	}
	def := s.reg.Default()
	rep := StatusReport{
		DefaultJob: def.Spec.Name,
		Jobs:       make(map[string]JobStatus, len(jobs)),
	}
	snaps := make([]map[string]int64, 0, len(jobs)+1)
	for _, j := range jobs {
		st := j.Coord.Status()
		if j == def {
			rep.StatusReport = st
		}
		js := jobStatus(j, st)
		rep.Jobs[j.Spec.Name] = js
		rep.Fleet.DevicesKnown += js.DevicesKnown
		rep.Fleet.DevicesLive += js.DevicesLive
		rep.Fleet.RoundsCommitted += js.RoundsCommitted
		rep.Fleet.UpdatesAggregated += js.UpdatesAggregated
		snaps = append(snaps, st.Counters)
	}
	snaps = append(snaps, s.reg.counters.Snapshot())
	rep.Fleet.Jobs = len(jobs)
	rep.Fleet.Counters = metrics.Rollup(snaps...)
	writeJSON(w, http.StatusOK, rep)
}

// ListenAndServe runs a serving handler (the multi-tenant API or the
// tier gateway) on addr until the server errors: http.ListenAndServe
// with a header-read timeout, which a long-polling device fleet needs
// and the default server lacks.
func ListenAndServe(addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.ListenAndServe()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}
