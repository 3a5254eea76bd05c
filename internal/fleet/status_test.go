package fleet_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"flint/internal/coord"
	"flint/internal/fleet"
	"flint/internal/model"
	"flint/internal/shard"
	"flint/internal/tenant"
)

// readStatus GETs base's /v1/status and decodes it strictly into
// tenant.StatusReport. The decoded document must encode back to the JSON
// it was read from, so no key of it goes unread. It also returns the
// document's size in bytes.
func readStatus(t *testing.T, base string) (tenant.StatusReport, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/status: %s, %v", base, resp.Status, err)
	}
	var st tenant.StatusReport
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("/v1/status does not decode into tenant.StatusReport: %v\n%s", err, raw)
	}
	again, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var read, written any
	if err := json.Unmarshal(raw, &read); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &written); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(read, written) {
		t.Fatalf("/v1/status lost data in tenant.StatusReport:\nread    %s\nwritten %s", raw, again)
	}
	return st, len(raw)
}

// TestStatusShape: /v1/status is one document at a one-job server, a
// two-job server and a two-shard tier. Only the tier has a tier section,
// and there each job's counts and the fleet sums are the sums of the
// shards' own documents, while each job's version is the leader's.
func TestStatusShape(t *testing.T) {
	base := coord.Config{Mode: coord.ModeSync, ModelKind: model.KindA, Seed: 1, RoundDeadline: 30 * time.Second}
	for _, tc := range []struct {
		name  string
		specs []tenant.JobSpec
	}{
		{"one job", []tenant.JobSpec{{Name: "served"}}},
		{"two jobs", []tenant.JobSpec{{Name: "ads"}, {Name: "msg", Token: "t0ken", MaxDevices: 50}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := tenant.NewRegistry(base)
			t.Cleanup(reg.Close)
			for _, sp := range tc.specs {
				if _, err := reg.Register(sp); err != nil {
					t.Fatal(err)
				}
			}
			srv := httptest.NewServer(tenant.NewServer(reg, false))
			t.Cleanup(srv.Close)
			st, _ := readStatus(t, srv.URL)
			if st.Tier != nil || st.DefaultJob != tc.specs[0].Name || st.Fleet.Jobs != len(tc.specs) {
				t.Fatalf("server status: default %q, %d jobs, tier %+v", st.DefaultJob, st.Fleet.Jobs, st.Tier)
			}
			for _, sp := range tc.specs {
				if js := st.Jobs[sp.Name]; js.Name != sp.Name || js.Version != 1 || js.Protected != (sp.Token != "") {
					t.Fatalf("job %s row %+v", sp.Name, js)
				}
			}
		})
	}
	t.Run("tier", func(t *testing.T) {
		leader, url, shards := newTier(t, 2)
		if _, err := fleet.Run(fleet.Config{
			BaseURL: url, Job: "b", Devices: 40, Rounds: 1, Seed: 5,
			ThinkTime: 200 * time.Millisecond, Timeout: 60 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		// Rounds still in flight when the fleet stops move the shards'
		// counts, so the two sides are compared until they settle.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
			st, size := readStatus(t, url)
			want := sumShards(t, leader, shards)
			if reflect.DeepEqual(st.Jobs, want.Jobs) && reflect.DeepEqual(st.Fleet, want.Fleet) && st.DefaultJob == want.DefaultJob {
				checkTier(t, st.Tier, shards)
				t.Logf("tier /v1/status: %d bytes", size)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("tier status %+v\nis not the sum of its shards' %+v", st, want)
			}
		}
	})
}

// sumShards reads every shard's /v1/status and adds up its job rows and
// fleet sections; each job's version is the leader's.
func sumShards(t *testing.T, leader *shard.Leader, shards []string) tenant.StatusReport {
	t.Helper()
	sum := tenant.StatusReport{Jobs: map[string]tenant.JobStatus{}, Fleet: tenant.FleetRollup{Counters: map[string]int64{}}}
	for i, u := range shards {
		st, _ := readStatus(t, u)
		if st.Tier != nil {
			t.Fatalf("shard %d emits a tier section", i)
		}
		if i == 0 {
			sum.DefaultJob = st.DefaultJob
		}
		for name, js := range st.Jobs {
			acc, seen := sum.Jobs[name]
			if !seen {
				acc = js
				acc.Version = leader.Version(name)
			} else {
				acc.RoundsCommitted += js.RoundsCommitted
				acc.UpdatesAggregated += js.UpdatesAggregated
				acc.DevicesKnown += js.DevicesKnown
				acc.DevicesLive += js.DevicesLive
				acc.QuotaRejected += js.QuotaRejected
				acc.AuthRejected += js.AuthRejected
			}
			sum.Jobs[name] = acc
		}
		sum.Fleet.DevicesKnown += st.Fleet.DevicesKnown
		sum.Fleet.DevicesLive += st.Fleet.DevicesLive
		sum.Fleet.RoundsCommitted += st.Fleet.RoundsCommitted
		sum.Fleet.UpdatesAggregated += st.Fleet.UpdatesAggregated
		for k, v := range st.Fleet.Counters {
			sum.Fleet.Counters[k] += v
		}
	}
	sum.Fleet.Jobs = len(sum.Jobs)
	return sum
}

// checkTier: the tier section is healthy and has one answering row per
// shard, listing every job's version.
func checkTier(t *testing.T, tier *tenant.TierStatus, shards []string) {
	t.Helper()
	if tier == nil || !tier.Healthy || tier.Shards != len(shards) || len(tier.ShardRows) != len(shards) {
		t.Fatalf("tier section %+v", tier)
	}
	if tier.Counters["tier_folds"] < 1 || tier.Gateway["route_by_device"] == 0 {
		t.Fatalf("tier counters %v, gateway counters %v", tier.Counters, tier.Gateway)
	}
	for i, row := range tier.ShardRows {
		if row.Index != i || row.URL != shards[i] || !row.OK || row.PingMS < 0 || len(row.Versions) != 2 || row.Versions["a"] != 1 {
			t.Fatalf("shard row %d: %+v", i, row)
		}
	}
}
