package transport

// The wire names of the device protocol. This file is their single owner:
// the server (internal/coord), the device client (internal/fleet) and the
// gateway's router (internal/shard) all reference these constants, and CI
// fails when a device-protocol "X-Flint-…" literal appears anywhere else.

// ContentTypeTensor marks binary tensor bodies (the internal/codec wire
// format). Devices opt in by sending it in Accept on GET /v1/task and as
// Content-Type on POST /v1/update; everything else falls back to the
// JSON protocol, so any client keeps working unchanged.
const ContentTypeTensor = "application/x-flint-tensor"

// Binary-protocol metadata travels in headers so the body can be the
// cached codec blob verbatim. Header names are the protocol; keep them
// stable.
//
// X-Flint-Base-Version is directional: on a task *request* it carries the
// published version the device already holds (its delta base); on the
// task *response* it names the version the task trains from. When the
// response body is a delta frame, X-Flint-Delta carries the base version
// the frame applies against (always the version the device sent —
// otherwise the server fell back to the full blob and the header is
// absent). X-Flint-Accept-Schemes echoes the device's check-in
// capability list so negotiation also works per-request.
const (
	HeaderDevice        = "X-Flint-Device"
	HeaderRound         = "X-Flint-Round"
	HeaderBaseVersion   = "X-Flint-Base-Version"
	HeaderModelKind     = "X-Flint-Model-Kind"
	HeaderDim           = "X-Flint-Dim"
	HeaderLocalSteps    = "X-Flint-Local-Steps"
	HeaderDeadlineMS    = "X-Flint-Deadline-Ms"
	HeaderUpdateScheme  = "X-Flint-Update-Scheme"
	HeaderWeight        = "X-Flint-Weight"
	HeaderDelta         = "X-Flint-Delta"
	HeaderAcceptSchemes = "X-Flint-Accept-Schemes"
	HeaderCohort        = "X-Flint-Cohort"
	// Telemetry report headers on POST /v1/update: the device's observed
	// task-download transfer (bytes and milliseconds) and its local
	// training duration. They feed the scheduling plane's per-device
	// EWMAs; the uplink half is measured server-side from the body
	// transfer itself. All optional — devices that report nothing simply
	// stay unmeasured.
	HeaderDownBytes = "X-Flint-Down-Bytes"
	HeaderDownMS    = "X-Flint-Down-Ms"
	HeaderTrainMS   = "X-Flint-Train-Ms"
	// The uplink pair is honored only under virtual-time load
	// (Sched.TimeCompression > 1): on a real deployment the server's own
	// body-transfer measurement is the trustworthy uplink probe, but a
	// compressed-time device's wire transfer happens at loopback speed in
	// wall time while its simulated link lives in the virtual clock — the
	// device must report the uplink half too or its UpBps EWMA would be
	// off by the compression factor.
	HeaderUpBytes = "X-Flint-Up-Bytes"
	HeaderUpMS    = "X-Flint-Up-Ms"
)
