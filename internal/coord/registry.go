package coord

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/sched"
)

// DeviceInfo is the device-reported state carried by a check-in or
// heartbeat: identity, hardware model, and the session attributes the
// participation criteria filter on (§3.2).
type DeviceInfo struct {
	ID          int64
	Model       string
	Platform    string
	WiFi        bool
	BatteryHigh bool
	ModernOS    bool
	// SessionSec is the device's expected remaining foreground-session
	// length, matched against Criteria.MinSessionSec.
	SessionSec float64
	// Weight is the device's local example count, used as the fallback
	// aggregation weight when a submission omits its own.
	Weight float64
	// Accept lists the codec scheme kinds the device advertised it can
	// decode at check-in (nil = legacy client, assumed to decode all);
	// transport negotiation constrains cohort policies to it.
	Accept []codec.Kind
}

// session converts the reported state into the availability.Session shape
// Criteria.Admit understands.
func (d DeviceInfo) session() availability.Session {
	return availability.Session{
		ClientID:    d.ID,
		Device:      d.Model,
		WiFi:        d.WiFi,
		BatteryHigh: d.BatteryHigh,
		ModernOS:    d.ModernOS,
		Start:       0,
		End:         d.SessionSec,
	}
}

// deviceState flags (packed session attributes).
const (
	devWiFi = 1 << iota
	devBatteryHigh
	devModernOS
	// devAcceptKnown distinguishes "advertised a capability list" (even
	// an empty one — the unusable-list fallback signal) from a legacy
	// client that advertised nothing.
	devAcceptKnown
)

// deviceState is the registry's resident per-device record, laid out for
// a million-device census: session attributes packed into one flag byte,
// the capability list packed into a scheme-kind bitmask, timestamps as
// unix nanos instead of 24-byte time.Time values, and telemetry in its
// 32-byte compact form — 96 bytes against the ~200-plus of the naive
// struct-of-API-types layout, stored by value in the shard map so there
// is no per-device heap object at all. Model/platform strings are
// interned registry-wide, so their bytes are shared across the fleet.
type deviceState struct {
	model, platform string // interned — header only, bytes shared
	lastSeenNS      int64
	// assignedRound is the round the device currently holds a task for
	// (0 = idle).
	assignedRound uint64
	sessionSec    float32
	weight        float32
	// gateDenials counts consecutive deadline-gate rejections; every
	// Nth is admitted as a re-measurement probe, and any fresh
	// telemetry observation resets the streak.
	gateDenials int32
	flags       uint8
	accept      uint8 // codec.Kind bitmask, valid when devAcceptKnown
	// tel is the device's measured serving telemetry (EWMA link
	// throughput, reported task durations) — the scheduling plane's
	// ground truth, folded in on the update path and read at assignment
	// time and by the scheduler's periodic fleet census.
	tel sched.TelemetryState
}

// setInfo overwrites the reported state (a check-in), leaving the
// serving bookkeeping (assignment, telemetry) untouched.
func (d *deviceState) setInfo(info DeviceInfo, intern func(string) string) {
	d.model = intern(info.Model)
	d.platform = intern(info.Platform)
	d.sessionSec = float32(info.SessionSec)
	d.weight = float32(info.Weight)
	d.flags &^= devWiFi | devBatteryHigh | devModernOS | devAcceptKnown
	if info.WiFi {
		d.flags |= devWiFi
	}
	if info.BatteryHigh {
		d.flags |= devBatteryHigh
	}
	if info.ModernOS {
		d.flags |= devModernOS
	}
	if info.Accept != nil {
		d.flags |= devAcceptKnown
		d.accept = packAccept(info.Accept)
	} else {
		d.accept = 0
	}
}

// info reconstructs the public DeviceInfo view.
func (d *deviceState) info(id int64) DeviceInfo {
	out := DeviceInfo{
		ID:          id,
		Model:       d.model,
		Platform:    d.platform,
		WiFi:        d.flags&devWiFi != 0,
		BatteryHigh: d.flags&devBatteryHigh != 0,
		ModernOS:    d.flags&devModernOS != 0,
		SessionSec:  float64(d.sessionSec),
		Weight:      float64(d.weight),
	}
	if d.flags&devAcceptKnown != 0 {
		out.Accept = unpackAccept(d.accept)
	}
	return out
}

// session builds the Criteria.Admit input without materializing the
// Accept slice (the census hot loop calls this per device).
func (d *deviceState) session(id int64) availability.Session {
	return availability.Session{
		ClientID:    id,
		Device:      d.model,
		WiFi:        d.flags&devWiFi != 0,
		BatteryHigh: d.flags&devBatteryHigh != 0,
		ModernOS:    d.flags&devModernOS != 0,
		Start:       0,
		End:         float64(d.sessionSec),
	}
}

// packAccept folds a capability list into a scheme-kind bitmask.
// Negotiation is membership-based (transport.Negotiate builds a set), so
// the list's order is not state worth 24 bytes of slice header plus a
// heap array per device.
func packAccept(kinds []codec.Kind) uint8 {
	var mask uint8
	for _, k := range kinds {
		if k >= 1 && k <= 7 {
			mask |= 1 << uint(k)
		}
	}
	return mask
}

// unpackAccept expands the bitmask in kind-enum order. Always non-nil:
// an empty advertised list round-trips as empty, not legacy.
func unpackAccept(mask uint8) []codec.Kind {
	out := make([]codec.Kind, 0, 4)
	for k := codec.Kind(1); k <= 7; k++ {
		if mask&(1<<uint(k)) != 0 {
			out = append(out, k)
		}
	}
	return out
}

// regShard is one lock stripe of the registry. Padding is omitted: shards
// hold maps, so false sharing on the header is negligible next to map work.
type regShard struct {
	mu   sync.Mutex
	devs map[int64]deviceState
}

// Registry is a sharded in-memory device registry: check-in, heartbeat, and
// assignment bookkeeping are O(1) map operations under a per-shard mutex, so
// concurrent device traffic spreads across stripes instead of serializing on
// one lock. Device records are stored by value in the shard maps — no
// per-device heap allocation — with the compact deviceState layout.
type Registry struct {
	shards []regShard
	ttl    time.Duration
	// known counts devices currently in the registry (inserted and not
	// yet swept) — the O(1) input to quota admission, maintained
	// atomically because inserts race across shards.
	known atomic.Int64
	// interned deduplicates model/platform strings fleet-wide: a
	// million devices report a few hundred distinct hardware models, so
	// per-device string bytes are pure waste. sync.Map because the path
	// is read-mostly after warmup (one store per distinct string ever).
	interned sync.Map // string -> string
}

// NewRegistry creates a registry with the given stripe count and liveness
// TTL.
func NewRegistry(shards int, ttl time.Duration) *Registry {
	if shards <= 0 {
		shards = 64
	}
	r := &Registry{shards: make([]regShard, shards), ttl: ttl}
	for i := range r.shards {
		r.shards[i].devs = make(map[int64]deviceState)
	}
	return r
}

// intern returns the registry's canonical copy of s.
func (r *Registry) intern(s string) string {
	if s == "" {
		return ""
	}
	if v, ok := r.interned.Load(s); ok {
		return v.(string)
	}
	v, _ := r.interned.LoadOrStore(s, s)
	return v.(string)
}

// shardIndex hashes a device ID onto a stripe index (Fibonacci
// multiplicative hash so sequential IDs still spread).
func (r *Registry) shardIndex(id int64) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(r.shards)))
}

func (r *Registry) shard(id int64) *regShard {
	return &r.shards[r.shardIndex(id)]
}

// CheckIn upserts a device's state and stamps it live. It returns true if
// the device was new.
func (r *Registry) CheckIn(info DeviceInfo, now time.Time) bool {
	isNew, _ := r.TryCheckIn(info, now, 0)
	return isNew
}

// TryCheckIn is CheckIn with quota admission: when quota > 0, a device
// not already in the registry is admitted only while the known-device
// count stays within quota, and ok reports the verdict (re-check-ins of
// known devices always succeed — the quota bounds distinct devices, not
// requests). The count is reserved with an atomic add before the insert
// and rolled back on rejection, so concurrent check-ins across shards
// can't overshoot the cap; quota <= 0 disables the check.
func (r *Registry) TryCheckIn(info DeviceInfo, now time.Time, quota int) (isNew, ok bool) {
	s := r.shard(info.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.checkInLocked(s, info, now, quota)
}

// checkInLocked is the upsert body shared by the single and batched
// check-in paths; the caller holds s.mu.
func (r *Registry) checkInLocked(s *regShard, info DeviceInfo, now time.Time, quota int) (isNew, ok bool) {
	if d, exists := s.devs[info.ID]; exists {
		d.setInfo(info, r.intern)
		d.lastSeenNS = now.UnixNano()
		s.devs[info.ID] = d
		return false, true
	}
	if n := r.known.Add(1); quota > 0 && n > int64(quota) {
		r.known.Add(-1)
		return true, false
	}
	var d deviceState
	d.setInfo(info, r.intern)
	d.lastSeenNS = now.UnixNano()
	s.devs[info.ID] = d
	return true, true
}

// CheckInBatch upserts a batch of devices, grouped by registry stripe so
// each shard's lock is taken once per batch instead of once per device —
// the registration-storm fast path a virtual-time load plane hits with
// thousands of check-ins per wire request. Quota semantics match
// TryCheckIn per device; rejected (new-over-quota) device IDs are
// returned in input order. newCount counts devices inserted.
func (r *Registry) CheckInBatch(infos []DeviceInfo, now time.Time, quota int) (newCount int, rejected []int64) {
	if len(infos) == 0 {
		return 0, nil
	}
	// Group input indices by stripe. For a batch much smaller than the
	// stripe count the grouping overhead is wasted; fall through to the
	// simple path there.
	if len(infos) < 8 {
		for _, info := range infos {
			isNew, ok := r.TryCheckIn(info, now, quota)
			if !ok {
				rejected = append(rejected, info.ID)
			} else if isNew {
				newCount++
			}
		}
		return newCount, rejected
	}
	groups := make([][]int32, len(r.shards))
	for i := range infos {
		si := r.shardIndex(infos[i].ID)
		groups[si] = append(groups[si], int32(i))
	}
	rejectedIdx := []int32{}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		s := &r.shards[si]
		s.mu.Lock()
		for _, i := range g {
			isNew, ok := r.checkInLocked(s, infos[i], now, quota)
			if !ok {
				rejectedIdx = append(rejectedIdx, i)
			} else if isNew {
				newCount++
			}
		}
		s.mu.Unlock()
	}
	if len(rejectedIdx) > 0 {
		// Report rejections in input order, not stripe order.
		sortInt32(rejectedIdx)
		rejected = make([]int64, len(rejectedIdx))
		for i, idx := range rejectedIdx {
			rejected[i] = infos[idx].ID
		}
	}
	return newCount, rejected
}

// sortInt32 is an insertion sort: rejection lists are empty or tiny, so
// pulling in sort.Slice's reflection machinery is not worth it.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Known returns the current known-device count (inserted and not yet
// swept) — the same O(1) figure quota admission checks against.
func (r *Registry) Known() int {
	return int(r.known.Load())
}

// deviceFootprintBytes estimates the registry's resident cost of one
// device: the map entry (key + value) plus amortized bucket overhead.
// Interned string bytes are shared fleet-wide and excluded. A layout
// estimate, not heap truth — its job is making deviceState growth show
// up in /v1/status, not matching pprof byte-for-byte.
const deviceFootprintBytes = int64(8+unsafe.Sizeof(deviceState{})) + 16

// FootprintBytes estimates the registry's resident device-state bytes —
// the registry half of the /v1/status footprint section. O(1).
func (r *Registry) FootprintBytes() int64 {
	return r.known.Load() * deviceFootprintBytes
}

// Heartbeat refreshes a device's liveness without changing its reported
// state. It returns false for unknown devices (they must check in first).
func (r *Registry) Heartbeat(id int64, now time.Time) bool {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok {
		return false
	}
	d.lastSeenNS = now.UnixNano()
	s.devs[id] = d
	return true
}

// Get returns a device's last reported state.
func (r *Registry) Get(id int64) (DeviceInfo, bool) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok {
		return DeviceInfo{}, false
	}
	return d.info(id), true
}

// Snapshot returns a device's reported state together with its measured
// telemetry in one shard critical section (the task-assignment path reads
// both).
func (r *Registry) Snapshot(id int64) (DeviceInfo, sched.Telemetry, bool) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok {
		return DeviceInfo{}, sched.Telemetry{}, false
	}
	return d.info(id), d.tel.Telemetry(), true
}

// TelemetryObservation is one update-path serving observation: the
// server-measured uplink transfer plus whatever the device reported about
// its side of the task (download timing, training duration). Zero fields
// are skipped.
type TelemetryObservation struct {
	UpBytes int
	UpDur   time.Duration
	// DownBytes/DownDur are the device-reported task-download transfer.
	DownBytes int
	DownDur   time.Duration
	// Train is the device-reported local-training duration.
	Train time.Duration
}

// Observe folds one serving observation into the device's telemetry
// EWMAs and stamps the decay clock. O(1), one shard lock; unknown
// devices are ignored.
func (r *Registry) Observe(id int64, o TelemetryObservation, now time.Time) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok {
		return
	}
	d.tel.Touch(now)
	if o.UpBytes > 0 {
		d.tel.ObserveUplink(o.UpBytes, o.UpDur)
	}
	if o.DownBytes > 0 {
		d.tel.ObserveDownlink(o.DownBytes, o.DownDur)
	}
	if o.Train > 0 {
		d.tel.ObserveTask(o.Train)
	}
	// Fresh measurements restart the deadline-gate denial streak: the
	// next gate decision runs on this observation, not the stale one
	// that was being probed.
	d.gateDenials = 0
	s.devs[id] = d
}

// NoteGateDenied records one deadline-gate rejection and returns the
// device's consecutive-denial streak (the probe-admission cadence input).
// O(1), one shard lock; unknown devices report 0.
func (r *Registry) NoteGateDenied(id int64) int {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok {
		return 0
	}
	if d.gateDenials < 1<<30 {
		d.gateDenials++
		s.devs[id] = d
	}
	return int(d.gateDenials)
}

// AppendSchedSamples snapshots every live device's telemetry for the
// scheduler's fleet-view rebuild into out (reusing its capacity — at a
// million-device census the sample buffer is tens of megabytes, and
// reallocating it every rebuild period would be most of the rebuild's
// allocation bill). Each sample is stamped with its radio label and
// current criteria eligibility, and aged through Telemetry.Decayed with
// ttl, so a device idle past the TTL re-enters the cohort map as
// unmeasured instead of pinned to a stale verdict.
//
// The walk is sharded, not a full-stop snapshot: each stripe's lock is
// held only while that stripe is copied, so check-in/task/update traffic
// on the other stripes never stalls behind the census — and the caller
// runs the walk off the watchdog tick, so deadline enforcement never
// waits on it either.
func (r *Registry) AppendSchedSamples(out []sched.DeviceSample, c availability.Criteria, now time.Time, ttl time.Duration) []sched.DeviceSample {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for id, d := range s.devs {
			if !r.live(&d, now) {
				continue
			}
			out = append(out, sched.DeviceSample{
				ID:       id,
				WiFi:     d.flags&devWiFi != 0,
				Eligible: c.Admit(d.session(id)),
				Tel:      d.tel.Telemetry().Decayed(now, ttl),
			})
		}
		s.mu.Unlock()
	}
	return out
}

// SchedSamples is AppendSchedSamples into a fresh buffer (tests and
// one-shot callers; the coordinator's rebuild loop reuses its own).
func (r *Registry) SchedSamples(c availability.Criteria, now time.Time, ttl time.Duration) []sched.DeviceSample {
	return r.AppendSchedSamples(nil, c, now, ttl)
}

// Eligible reports whether the device is known, live at now, idle, and
// admitted by the criteria: the read-only view of the predicate Assign
// applies atomically on the task-assignment path (tests and diagnostics
// use this; serving uses Assign).
func (r *Registry) Eligible(id int64, c availability.Criteria, now time.Time) bool {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok || d.assignedRound != 0 || !r.live(&d, now) {
		return false
	}
	return c.Admit(d.session(id))
}

// Assign marks a live, admitted device as holding a task for round. It
// returns false if the device is unknown, stale, filtered, or already
// assigned — except that an assignment left over from an older round is
// overwritten: the device asking for new work means it abandoned the old
// task, and abandoned assignments must not pin devices forever.
func (r *Registry) Assign(id int64, round uint64, c availability.Criteria, now time.Time) bool {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok || d.assignedRound >= round || !r.live(&d, now) || !c.Admit(d.session(id)) {
		return false
	}
	d.assignedRound = round
	d.lastSeenNS = now.UnixNano()
	s.devs[id] = d
	return true
}

// ConsumeAssignment atomically clears and returns the device's current
// assignment. ok is false when the device is unknown or holds no task —
// which is how duplicate and unsolicited submissions are rejected: each
// handed-out task is good for exactly one submission.
func (r *Registry) ConsumeAssignment(id int64) (round uint64, ok bool) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[id]
	if !ok || d.assignedRound == 0 {
		return 0, false
	}
	round = d.assignedRound
	d.assignedRound = 0
	s.devs[id] = d
	return round, true
}

// Release returns a device to the idle pool (after its update is ingested,
// its round ends, or its task is abandoned).
func (r *Registry) Release(id int64) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.devs[id]; ok && d.assignedRound != 0 {
		d.assignedRound = 0
		s.devs[id] = d
	}
}

// ReleaseIf idles the device only if it still holds a task for round,
// leaving newer assignments untouched.
func (r *Registry) ReleaseIf(id int64, round uint64) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.devs[id]; ok && d.assignedRound == round {
		d.assignedRound = 0
		s.devs[id] = d
	}
}

// NoteScreened records that the norm screen rejected the device's update
// at commit: its telemetry trust is revoked (sample counts zeroed, EWMAs
// kept — see sched.TelemetryState.Distrust), so the scheduling plane treats it
// as unmeasured until fresh honest transfers re-earn trust. O(1), one
// shard lock; unknown devices are ignored.
func (r *Registry) NoteScreened(id int64) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.devs[id]; ok {
		d.tel.Distrust()
		s.devs[id] = d
	}
}

func (r *Registry) live(d *deviceState, now time.Time) bool {
	return r.ttl <= 0 || now.UnixNano()-d.lastSeenNS <= int64(r.ttl)
}

// Stats is a point-in-time census of the registry.
type Stats struct {
	Known    int // devices ever checked in and not swept
	Live     int // within the liveness TTL
	Eligible int // live, idle, and admitted by the criteria
	Assigned int // currently holding a task
}

// Census scans the registry (O(n), for /v1/status — the serving paths never
// call it).
func (r *Registry) Census(c availability.Criteria, now time.Time) Stats {
	var st Stats
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		st.Known += len(s.devs)
		for id, d := range s.devs {
			if !r.live(&d, now) {
				continue
			}
			st.Live++
			if d.assignedRound != 0 {
				st.Assigned++
			} else if c.Admit(d.session(id)) {
				st.Eligible++
			}
		}
		s.mu.Unlock()
	}
	return st
}

// Sweep drops devices unseen past keep and returns how many were removed;
// production registries garbage-collect departed devices periodically. A
// held assignment does not protect a dead device — its task is void (a
// post-sweep submission is rejected as unassigned), and sparing it would
// let async-mode dropouts pin registry entries forever.
func (r *Registry) Sweep(keep time.Duration, now time.Time) int {
	n := 0
	nowNS := now.UnixNano()
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for id, d := range s.devs {
			if nowNS-d.lastSeenNS > int64(keep) {
				delete(s.devs, id)
				n++
			}
		}
		s.mu.Unlock()
	}
	if n > 0 {
		r.known.Add(int64(-n))
	}
	return n
}
