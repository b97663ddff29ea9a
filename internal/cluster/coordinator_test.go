package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"partfeas/internal/faultinject"
	"partfeas/internal/service"
)

// ---- harness ----

type testReplica struct {
	srv *service.Server
	url string
	cfg service.Config
}

// startReplica boots one admission replica on an ephemeral loopback
// port. Durable replicas pin the bound port in cfg so a restart after
// Crash comes back at the same URL.
func startReplica(t testing.TB, durable bool) *testReplica {
	t.Helper()
	cfg := service.Config{Addr: "127.0.0.1:0", Logf: t.Logf}
	var srv *service.Server
	if durable {
		cfg.DataDir = t.TempDir()
		cfg.FsyncInterval = -1
		cfg.SnapshotEvery = -1
		var err error
		srv, err = service.NewDurable(cfg)
		if err != nil {
			t.Fatalf("replica: %v", err)
		}
	} else {
		srv = service.New(cfg)
	}
	if err := srv.Listen(); err != nil {
		t.Fatalf("replica listen: %v", err)
	}
	go func() { _ = srv.Serve() }()
	r := &testReplica{srv: srv, url: "http://" + srv.Addr(), cfg: cfg}
	r.cfg.Addr = srv.Addr()
	t.Cleanup(func() { r.shutdown() })
	return r
}

func (r *testReplica) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx)
}

// crash kills the replica process-style (durability abandoned, port
// released) and restart brings it back on the same URL from its log.
func (r *testReplica) crash(t testing.TB) {
	t.Helper()
	r.srv.Crash()
	r.shutdown()
}

func (r *testReplica) restart(t testing.TB) {
	t.Helper()
	srv, err := service.NewDurable(r.cfg)
	if err != nil {
		t.Fatalf("replica restart: %v", err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatalf("replica relisten: %v", err)
	}
	go func() { _ = srv.Serve() }()
	r.srv = srv
}

// startCoordinator fronts the replicas; the health loop is disabled so
// tests drive Probe deterministically.
func startCoordinator(t testing.TB, replicas ...*testReplica) *Coordinator {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.url
	}
	c := New(Config{
		Addr: "127.0.0.1:0", Replicas: urls,
		HealthInterval: -1, IDPrefix: "t", Logf: t.Logf,
	})
	if err := c.Listen(); err != nil {
		t.Fatalf("coordinator listen: %v", err)
	}
	go func() { _ = c.Serve() }()
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func coordURL(c *Coordinator) string { return "http://" + c.Addr() }

func httpDo(t testing.TB, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, data
}

const createBody = `{"tasks":[{"name":"a","wcet":1,"period":5},{"name":"b","wcet":2,"period":10}],"speeds":[1,1,2],"scheduler":"edf"}`

// createSession opens a session through the coordinator and returns the
// assigned ID and the shard that answered.
func createSession(t testing.TB, base string) (id, shard string) {
	t.Helper()
	code, hdr, data := httpDo(t, http.MethodPost, base+"/v1/sessions", createBody)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, data)
	}
	var sr service.SessionResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	if sr.ID == "" {
		t.Fatal("create response has no session id")
	}
	return sr.ID, hdr.Get("X-Shard")
}

// ---- tests ----

// TestClusterRouting: session traffic lands on the ring owner and is
// stamped X-Shard; stateless endpoints are answered locally, unstamped.
func TestClusterRouting(t *testing.T) {
	r0, r1, r2 := startReplica(t, false), startReplica(t, false), startReplica(t, false)
	c := startCoordinator(t, r0, r1, r2)
	base := coordURL(c)
	ring := NewRing([]string{r0.url, r1.url, r2.url}, 0)

	shards := map[string]int{}
	for i := 0; i < 12; i++ {
		id, shard := createSession(t, base)
		if want := ring.Owner(id); shard != want {
			t.Errorf("session %s created on %s, ring owner is %s", id, shard, want)
		}
		shards[shard]++
		code, hdr, _ := httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
		if code != http.StatusOK || hdr.Get("X-Shard") != shard {
			t.Errorf("get %s: %d via %q, want 200 via %q", id, code, hdr.Get("X-Shard"), shard)
		}
	}
	if len(shards) < 2 {
		t.Errorf("12 sessions all landed on one replica: %v", shards)
	}

	code, hdr, _ := httpDo(t, http.MethodPost, base+"/v1/test",
		`{"tasks":[{"wcet":1,"period":4}],"speeds":[1],"scheduler":"edf"}`)
	if code != http.StatusOK {
		t.Errorf("/v1/test via coordinator: %d", code)
	}
	if hdr.Get("X-Shard") != "" {
		t.Errorf("stateless endpoint was forwarded to %q", hdr.Get("X-Shard"))
	}

	code, _, data := httpDo(t, http.MethodGet, base+"/v1/cluster", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d", code)
	}
	var st ClusterStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 3 {
		t.Errorf("cluster status lists %d replicas, want 3", len(st.Replicas))
	}
}

// TestClusterForcedMigration: an operator-placed migration moves the
// session and routing follows it; a migration done behind the
// coordinator's back is healed by following the 421 redirect once.
func TestClusterForcedMigration(t *testing.T) {
	r0, r1 := startReplica(t, false), startReplica(t, false)
	c := startCoordinator(t, r0, r1)
	base := coordURL(c)

	id, shard := createSession(t, base)
	target := r0.url
	if shard == r0.url {
		target = r1.url
	}
	code, _, data := httpDo(t, http.MethodPost, base+"/v1/cluster/migrate",
		fmt.Sprintf(`{"id":%q,"target":%q}`, id, target))
	if code != http.StatusOK {
		t.Fatalf("cluster migrate: %d %s", code, data)
	}
	code, hdr, _ := httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
	if code != http.StatusOK || hdr.Get("X-Shard") != target {
		t.Fatalf("after forced migration: %d via %q, want 200 via %q", code, hdr.Get("X-Shard"), target)
	}

	// Move it back directly replica→replica; the coordinator's next
	// forward hits the tombstone and follows it.
	code, _, data = httpDo(t, http.MethodPost, target+"/v1/sessions/"+id+"/migrate",
		fmt.Sprintf(`{"target":%q}`, shard))
	if code != http.StatusOK {
		t.Fatalf("direct migrate back: %d %s", code, data)
	}
	code, hdr, _ = httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
	if code != http.StatusOK || hdr.Get("X-Shard") != shard {
		t.Fatalf("after behind-the-back migration: %d via %q, want 200 via %q", code, hdr.Get("X-Shard"), shard)
	}
	if got := c.Status().Redirects; got == 0 {
		t.Error("redirect follow not counted")
	}
}

// TestClusterJoinLeave: joining a replica relocates exactly the sessions
// the ring hands it, leaving drains it, and every session stays
// reachable (and correctly placed) throughout.
func TestClusterJoinLeave(t *testing.T) {
	r0, r1 := startReplica(t, false), startReplica(t, false)
	c := startCoordinator(t, r0, r1)
	base := coordURL(c)

	var ids []string
	for i := 0; i < 24; i++ {
		id, _ := createSession(t, base)
		ids = append(ids, id)
	}

	r2 := startReplica(t, false)
	code, _, data := httpDo(t, http.MethodPost, base+"/v1/cluster/join", fmt.Sprintf(`{"replica":%q}`, r2.url))
	if code != http.StatusOK {
		t.Fatalf("join: %d %s", code, data)
	}
	var jr struct {
		Moved int `json:"moved"`
	}
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	grown := NewRing([]string{r0.url, r1.url, r2.url}, 0)
	wantMoved := 0
	old := NewRing([]string{r0.url, r1.url}, 0)
	for _, id := range ids {
		if grown.Owner(id) != old.Owner(id) {
			wantMoved++
		}
	}
	if jr.Moved != wantMoved {
		t.Errorf("join moved %d sessions, ring says exactly %d must move", jr.Moved, wantMoved)
	}
	if wantMoved == 0 {
		t.Fatal("no session relocates on join; the test is vacuous — change the ID count")
	}
	for _, id := range ids {
		code, hdr, _ := httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
		if code != http.StatusOK || hdr.Get("X-Shard") != grown.Owner(id) {
			t.Errorf("after join, %s: %d via %q, want 200 via %q", id, code, hdr.Get("X-Shard"), grown.Owner(id))
		}
	}

	code, _, data = httpDo(t, http.MethodPost, base+"/v1/cluster/leave", fmt.Sprintf(`{"replica":%q}`, r2.url))
	if code != http.StatusOK {
		t.Fatalf("leave: %d %s", code, data)
	}
	for _, id := range ids {
		code, hdr, _ := httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
		if code != http.StatusOK || hdr.Get("X-Shard") != old.Owner(id) {
			t.Errorf("after leave, %s: %d via %q, want 200 via %q", id, code, hdr.Get("X-Shard"), old.Owner(id))
		}
	}
	for _, rep := range c.Status().Replicas {
		if rep.URL == r2.url {
			t.Error("drained replica still in the contact set")
		}
	}
}

// TestClusterReplicaCrash: a killed replica turns into 502s for its
// sessions (the probe marks it down); after a restart from its WAL the
// sessions answer again with their state intact.
func TestClusterReplicaCrash(t *testing.T) {
	r0, r1 := startReplica(t, true), startReplica(t, true)
	c := startCoordinator(t, r0, r1)
	base := coordURL(c)

	id, shard := createSession(t, base)
	victim := r0
	if shard == r1.url {
		victim = r1
	}
	code, _, data := httpDo(t, http.MethodPost, base+"/v1/sessions/"+id+"/tasks",
		`{"task":{"name":"x","wcet":1,"period":10}}`)
	if code != http.StatusOK {
		t.Fatalf("admit: %d %s", code, data)
	}

	victim.crash(t)
	code, _, _ = httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
	if code != http.StatusBadGateway {
		t.Fatalf("get through dead replica: %d, want 502", code)
	}
	c.Probe(context.Background())
	if !strings.Contains(metricsText(t, base), fmt.Sprintf("partfeas_replica_up{replica=%q} 0", victim.url)) {
		t.Error("dead replica not reported down")
	}

	victim.restart(t)
	code, hdr, data := httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
	if code != http.StatusOK || hdr.Get("X-Shard") != victim.url {
		t.Fatalf("after restart: %d via %q: %s", code, hdr.Get("X-Shard"), data)
	}
	var sr service.SessionResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Tasks) != 3 {
		t.Errorf("recovered session has %d tasks, want 3 (2 created + 1 admitted)", len(sr.Tasks))
	}
	c.Probe(context.Background())
	if !strings.Contains(metricsText(t, base), fmt.Sprintf("partfeas_replica_up{replica=%q} 1", victim.url)) {
		t.Error("recovered replica not reported up")
	}
}

// TestClusterDegradedPassthrough is the satellite-2 claim: a
// WAL-degraded replica's 503 — Retry-After and all — must reach the
// client through the coordinator unchanged (and be counted), never be
// masked or retried into a fake success.
func TestClusterDegradedPassthrough(t *testing.T) {
	r0 := startReplica(t, true)
	c := startCoordinator(t, r0)
	base := coordURL(c)
	id, _ := createSession(t, base)

	deactivate := faultinject.Activate(faultinject.Plan{
		Site: faultinject.SiteWALAppend,
		Nth:  1,
		Err:  fmt.Errorf("injected disk failure"),
	})
	defer deactivate()

	code, hdr, data := httpDo(t, http.MethodPost, base+"/v1/sessions/"+id+"/tasks",
		`{"task":{"name":"x","wcet":1,"period":10}}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("admit on degraded replica: %d %s, want 503", code, data)
	}
	if got := hdr.Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After = %q, want %q (stripped in transit?)", got, "30")
	}
	if hdr.Get("X-Shard") != r0.url {
		t.Errorf("degraded 503 not attributed to its shard: %q", hdr.Get("X-Shard"))
	}
	if got := c.Status().DegradedPassthrough; got != 1 {
		t.Errorf("degraded passthrough count = %d, want 1", got)
	}
	if !strings.Contains(metricsText(t, base), "partfeas_degraded_passthrough_total 1") {
		t.Error("/metrics missing the degraded passthrough counter")
	}
	// Reads keep working through the same path.
	if code, _, _ := httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, ""); code != http.StatusOK {
		t.Errorf("read on degraded replica: %d, want 200", code)
	}
}

// TestClusterMigrationRetryObservesCancel: a client that hangs up while
// the coordinator waits out a run of 503+X-Migration answers gets its
// handler back promptly, and nothing more is forwarded for it.
func TestClusterMigrationRetryObservesCancel(t *testing.T) {
	var hits atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("X-Migration", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer fake.Close()
	c := New(Config{Addr: "127.0.0.1:0", Replicas: []string{fake.URL}, HealthInterval: -1, IDPrefix: "t", Logf: t.Logf})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/t-1/tasks", strings.NewReader(`{"task":{"wcet":1,"period":10}}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan time.Time)
	go func() {
		c.Handler().ServeHTTP(rec, req)
		done <- time.Now()
	}()
	// After the third answer the coordinator backs off 100 ms before the
	// fourth try; hang up inside that wait.
	for c.migrationRetries.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	cancelled := time.Now()
	cancel()
	select {
	case end := <-done:
		if wait := end.Sub(cancelled); wait > 50*time.Millisecond {
			t.Errorf("handler returned %v after the client hung up", wait)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running 5s after the client hung up")
	}
	time.Sleep(300 * time.Millisecond)
	if n := hits.Load(); n != 3 {
		t.Errorf("replica saw %d forwards, want 3 (nothing after the hang-up)", n)
	}
	if rec.Code != service.StatusClientClosedRequest {
		t.Errorf("status %d, want %d", rec.Code, service.StatusClientClosedRequest)
	}
}

func metricsText(t testing.TB, base string) string {
	t.Helper()
	code, _, data := httpDo(t, http.MethodGet, base+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	return string(data)
}

// TestClusterSmoke is the clustersmoke gate: a 3-replica durable cluster
// behind a coordinator — sessions spread by the ring, one forced
// migration, one replica crash + WAL restart, a rebalance — and at the
// end every session answers with the right state and the metrics agree.
func TestClusterSmoke(t *testing.T) {
	reps := []*testReplica{startReplica(t, true), startReplica(t, true), startReplica(t, true)}
	c := startCoordinator(t, reps[0], reps[1], reps[2])
	base := coordURL(c)
	byURL := map[string]*testReplica{}
	for _, r := range reps {
		byURL[r.url] = r
	}

	var ids []string
	for i := 0; i < 9; i++ {
		id, _ := createSession(t, base)
		code, _, data := httpDo(t, http.MethodPost, base+"/v1/sessions/"+id+"/tasks",
			fmt.Sprintf(`{"task":{"name":"extra%d","wcet":1,"period":20}}`, i))
		if code != http.StatusOK {
			t.Fatalf("admit into %s: %d %s", id, code, data)
		}
		ids = append(ids, id)
	}

	// Forced migration off the ring owner.
	ring := NewRing([]string{reps[0].url, reps[1].url, reps[2].url}, 0)
	owner := ring.Owner(ids[0])
	var target string
	for _, r := range reps {
		if r.url != owner {
			target = r.url
			break
		}
	}
	code, _, data := httpDo(t, http.MethodPost, base+"/v1/cluster/migrate",
		fmt.Sprintf(`{"id":%q,"target":%q}`, ids[0], target))
	if code != http.StatusOK {
		t.Fatalf("forced migration: %d %s", code, data)
	}

	// Crash and restart the migration target, then rebalance: the
	// restarted replica still holds the migrated session (durable
	// MigrateIn), and rebalance sends it home to the ring owner.
	byURL[target].crash(t)
	byURL[target].restart(t)
	code, _, data = httpDo(t, http.MethodPost, base+"/v1/cluster/rebalance", "")
	if code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, data)
	}

	for _, id := range ids {
		code, hdr, body := httpDo(t, http.MethodGet, base+"/v1/sessions/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("get %s: %d %s", id, code, body)
		}
		if want := ring.Owner(id); hdr.Get("X-Shard") != want {
			t.Errorf("%s served by %q, ring owner %q", id, hdr.Get("X-Shard"), want)
		}
		var sr service.SessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Tasks) != 3 {
			t.Errorf("%s has %d tasks, want 3", id, len(sr.Tasks))
		}
	}

	c.Probe(context.Background())
	mtx := metricsText(t, base)
	total := 0
	for _, r := range reps {
		var n int
		fmt.Sscanf(afterLine(mtx, fmt.Sprintf("partfeas_replica_sessions{replica=%q} ", r.url)), "%d", &n)
		total += n
		if !strings.Contains(mtx, fmt.Sprintf("partfeas_replica_up{replica=%q} 1", r.url)) {
			t.Errorf("replica %s not up at the end", r.url)
		}
	}
	if total != len(ids) {
		t.Errorf("session gauges sum to %d, want %d", total, len(ids))
	}
	if !strings.Contains(mtx, "partfeas_forwarded_requests_total{replica=") {
		t.Error("/metrics missing forwarded-requests counters")
	}
	// The migration counters moved on the replicas involved.
	_, _, repm := httpDo(t, http.MethodGet, target+"/metrics", "")
	if !strings.Contains(string(repm), `partfeas_migrations_total{direction="out"} 1`) {
		t.Error("migration target's out-counter did not move on rebalance")
	}
}

// afterLine returns the remainder of the first line starting with
// prefix, or "" when absent.
func afterLine(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimPrefix(line, prefix)
		}
	}
	return ""
}
