package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestConstrainedSessionLifecycle drives a constrained-deadline session
// end to end through the HTTP handlers: create with per-task deadlines,
// single and batch admits, a rejection witness, WCET updates against the
// C ≤ D rule, and the constrained-specific refusals (force, repartition,
// non-EDF schedulers, deadlines outside constrained sessions).
func TestConstrainedSessionLifecycle(t *testing.T) {
	s := newTestServer(t)

	w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"name":"a","wcet":2,"period":10,"deadline":5},{"name":"b","wcet":1,"period":8}],`+
			`"speeds":[1,0.25],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.DeadlineModel != "constrained" {
		t.Fatalf("deadline_model = %q, want constrained", st.DeadlineModel)
	}
	if st.Tasks[0].Deadline != 5 || st.Tasks[1].Deadline != 0 {
		t.Fatalf("echoed deadlines = %d, %d; want 5 and 0 (implicit)", st.Tasks[0].Deadline, st.Tasks[1].Deadline)
	}
	if !st.Test.Accepted {
		t.Fatalf("feasible constrained set rejected at create: %+v", st.Test)
	}
	base := "/v1/sessions/" + st.ID

	// A constrained admit that fits.
	w = do(t, s, "POST", base+"/tasks", `{"task":{"name":"c","wcet":1,"period":6,"deadline":3}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("admit: %d %s", w.Code, w.Body)
	}
	var ar AdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Admitted || ar.NTasks != 3 {
		t.Fatalf("admit: %+v", ar)
	}

	// A density-1 task monopolizes the only machine that can hold it
	// (first-fit places it alone on the speed-1 machine, leaving task a
	// with no feasible home): rejected and rolled back, set unchanged.
	w = do(t, s, "POST", base+"/tasks", `{"task":{"name":"hog","wcet":9,"period":10,"deadline":9}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("reject admit: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Admitted || !ar.RolledBack || ar.NTasks != 3 {
		t.Fatalf("reject admit: %+v", ar)
	}

	// Batch admit with mixed implicit and constrained deadlines.
	w = do(t, s, "POST", base+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":12,"deadline":6},{"wcet":1,"period":16}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	var br BatchAdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.NAdmitted != 2 || br.NTasks != 5 {
		t.Fatalf("batch: %+v", br)
	}

	// WCET above the task's deadline violates C ≤ D.
	w = do(t, s, "POST", base+"/wcet", `{"index":0,"wcet":7}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("wcet > deadline: %d %s", w.Code, w.Body)
	}
	// A WCET within the deadline re-tests incrementally.
	w = do(t, s, "POST", base+"/wcet", `{"index":0,"wcet":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("wcet update: %d %s", w.Code, w.Body)
	}

	// Remove commits and shrinks the deadline bookkeeping.
	w = do(t, s, "DELETE", base+"/tasks/1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Admitted || ar.NTasks != 4 {
		t.Fatalf("remove: %+v", ar)
	}

	// Ad-hoc alpha re-test runs a fresh constrained solve.
	w = do(t, s, "POST", base+"/test", `{"alpha":2.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ad-hoc test: %d %s", w.Code, w.Body)
	}

	// Force commits follow the implicit sessions' rules; repartition is
	// the one constrained refusal.
	for _, tc := range []struct {
		name, method, path, body string
		code                     int
	}{
		{"force admit", "POST", base + "/tasks", `{"task":{"wcet":1,"period":30},"force":true}`, http.StatusOK},
		{"force wcet", "POST", base + "/wcet", `{"index":0,"wcet":1,"force":true}`, http.StatusOK},
		{"repartition", "POST", base + "/repartition", `{}`, http.StatusConflict},
	} {
		if w := do(t, s, tc.method, tc.path, tc.body); w.Code != tc.code {
			t.Fatalf("%s: %d %s (want %d)", tc.name, w.Code, w.Body, tc.code)
		}
	}

	// Model guards outside constrained sessions.
	if w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":4,"deadline":2}],"speeds":[1],"scheduler":"rms","deadline_model":"constrained"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("rms constrained: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":4,"deadline":2}],"speeds":[1]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("implicit session with deadline: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, "POST", "/v1/test",
		`{"tasks":[{"wcet":1,"period":4,"deadline":2}],"speeds":[1]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("stateless with deadline: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":4}],"speeds":[1],"deadline_model":"sporadic"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad model: %d %s", w.Code, w.Body)
	}
	// Infeasible constrained creation opens the session over capacity,
	// answering what a fresh constrained first-fit solve answers.
	w = do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":9,"period":10,"deadline":9},{"wcet":9,"period":10,"deadline":9}],"speeds":[1],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("infeasible constrained create: %d %s", w.Code, w.Body)
	}
	var over SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &over); err != nil {
		t.Fatal(err)
	}
	if over.Test.Accepted || over.Test.FailedTask != 1 || !reflect.DeepEqual(over.Test.Assignment, []int{0, -1}) {
		t.Fatalf("infeasible constrained create: %+v", over.Test)
	}
}

// TestConstrainedAdmissionMetrics asserts the per-tier admission
// counters move under a constrained-deadline session: after a burst of
// single admits the scrape must show nonzero decisions on the tier
// paths, alongside the tail/interior classification.
func TestConstrainedAdmissionMetrics(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":64,"deadline":32}],"speeds":[1,1],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	base := "/v1/sessions/" + st.ID
	for i := 0; i < 24; i++ {
		body := fmt.Sprintf(`{"task":{"wcet":1,"period":%d,"deadline":%d}}`, 32+i, 16+i)
		if w := do(t, s, "POST", base+"/tasks", body); w.Code != http.StatusOK {
			t.Fatalf("admit %d: %d %s", i, w.Code, w.Body)
		}
	}

	scrape := do(t, s, "GET", "/metrics", "")
	if scrape.Code != http.StatusOK {
		t.Fatalf("metrics: %d", scrape.Code)
	}
	out := scrape.Body.String()
	tierTotal := uint64(0)
	for _, path := range []string{"density", "dbf_approx", "dbf_exact"} {
		marker := fmt.Sprintf("partfeas_admissions_total{path=%q} ", path)
		at := strings.Index(out, marker)
		if at < 0 {
			t.Fatalf("scrape missing %q:\n%s", marker, out)
		}
		var v uint64
		if _, err := fmt.Sscanf(out[at+len(marker):], "%d", &v); err != nil {
			t.Fatalf("parse %q counter: %v", path, err)
		}
		tierTotal += v
		// Each tier path also exposes its latency summary.
		if q := fmt.Sprintf("partfeas_admission_duration_seconds_count{path=%q} ", path); !strings.Contains(out, q) {
			t.Fatalf("scrape missing %q", q)
		}
	}
	if tierTotal == 0 {
		t.Fatalf("no tier-path admissions recorded:\n%s", out)
	}
	if !strings.Contains(out, `partfeas_admissions_total{path="tail"}`) {
		t.Fatalf("tail path missing from scrape")
	}
}
