package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestSessionCreatePolicyNames checks that session create accepts every
// canonical placement policy name (plus the legacy aliases) and echoes
// the resolved canonical name back, and that an unknown name is a 400
// naming the offending value.
func TestSessionCreatePolicyNames(t *testing.T) {
	s := newTestServer(t)
	cases := []struct{ request, want string }{
		{"", "first_fit_sorted"},
		{"first_fit_sorted", "first_fit_sorted"},
		{"sorted", "first_fit_sorted"},
		{"first_fit_arrival", "first_fit_arrival"},
		{"arrival", "first_fit_arrival"},
		{"best_fit", "best_fit"},
		{"worst_fit", "worst_fit"},
		{"k_choices", "k_choices"},
		{"k_choices_4", "k_choices_4"},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"tasks":[{"wcet":1,"period":8},{"wcet":3,"period":8}],"speeds":[1,2],"scheduler":"edf","placement":%q}`, tc.request)
		w := do(t, s, http.MethodPost, "/v1/sessions", body)
		if w.Code != http.StatusCreated {
			t.Fatalf("placement %q: %d %s", tc.request, w.Code, w.Body)
		}
		var sess SessionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sess); err != nil {
			t.Fatal(err)
		}
		if sess.Placement != tc.want {
			t.Errorf("placement %q: response echoes %q, want %q", tc.request, sess.Placement, tc.want)
		}
		// The engine must actually run the policy: one more admit works
		// under every lane (total util 0.5+1 on speeds 1+2).
		if w := do(t, s, http.MethodPost, "/v1/sessions/"+sess.ID+"/tasks", `{"task":{"wcet":2,"period":8}}`); w.Code != http.StatusOK {
			t.Errorf("placement %q: admit: %d %s", tc.request, w.Code, w.Body)
		}
	}

	w := do(t, s, http.MethodPost, "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":8}],"speeds":[1],"scheduler":"edf","placement":"telepathy_fit"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown placement: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "telepathy_fit") || !strings.Contains(w.Body.String(), "first_fit_sorted") {
		t.Fatalf("400 body should name the value and the valid set: %s", w.Body)
	}
}

// TestSessionCreatePolicyConstrained checks the constrained pipeline
// takes the new policy names too, and still refuses repartition lanes.
func TestSessionCreatePolicyConstrained(t *testing.T) {
	s := newTestServer(t)
	body := `{"tasks":[{"wcet":1,"period":8,"deadline":4},{"wcet":2,"period":8,"deadline":8}],"speeds":[1,2],"scheduler":"edf","deadline_model":"constrained","placement":"best_fit"}`
	w := do(t, s, http.MethodPost, "/v1/sessions", body)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var sess SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	if sess.Placement != "best_fit" {
		t.Fatalf("placement = %q", sess.Placement)
	}
	bad := strings.Replace(body, `"placement":"best_fit"`, `"placement":"best_fit+repartition_5"`, 1)
	if w := do(t, s, http.MethodPost, "/v1/sessions", bad); w.Code != http.StatusBadRequest {
		t.Fatalf("constrained repartition policy: %d %s", w.Code, w.Body)
	}
}

// TestLocalPolicyOverCapacity: a local-policy session forced over
// capacity answers from its own placement, not from a sorted solve. The
// forced task waits unplaced; GET and re-test report that placement,
// repartition refuses while it lasts, and a removal that frees room
// places the waiting task.
func TestLocalPolicyOverCapacity(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodPost, "/v1/sessions",
		`{"tasks":[{"wcet":2,"period":5},{"wcet":2,"period":5},{"wcet":3,"period":5}],"speeds":[1,1],"placement":"first_fit_arrival"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var sess SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	base := "/v1/sessions/" + sess.ID
	check := func(name string, tr TestResponse, accepted bool, assignment []int, failed int) {
		t.Helper()
		if tr.Accepted != accepted || tr.FailedTask != failed || !reflect.DeepEqual(tr.Assignment, assignment) {
			t.Fatalf("%s: accepted=%v assignment=%v failed=%d, want %v %v %d",
				name, tr.Accepted, tr.Assignment, tr.FailedTask, accepted, assignment, failed)
		}
	}

	w = do(t, s, http.MethodPost, base+"/tasks", `{"task":{"wcet":3,"period":5},"force":true}`)
	var ar AdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK {
		t.Fatalf("force admit: %d %s", w.Code, w.Body)
	}
	if !ar.Admitted || ar.RolledBack || ar.NTasks != 4 {
		t.Fatalf("force admit: %+v", ar)
	}
	check("force admit", ar.Test, false, []int{0, 0, 1, -1}, 3)

	w = do(t, s, http.MethodGet, base, "")
	if err := json.Unmarshal(w.Body.Bytes(), &sess); err != nil || w.Code != http.StatusOK {
		t.Fatalf("get: %d %s", w.Code, w.Body)
	}
	check("get", sess.Test, false, []int{0, 0, 1, -1}, 3)

	var tr TestResponse
	w = do(t, s, http.MethodPost, base+"/test", `{}`)
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil || w.Code != http.StatusOK {
		t.Fatalf("test: %d %s", w.Code, w.Body)
	}
	check("test", tr, false, []int{0, 0, 1, -1}, 3)

	if w := do(t, s, http.MethodPost, base+"/repartition", `{}`); w.Code != http.StatusConflict {
		t.Fatalf("repartition over capacity: %d %s, want 409", w.Code, w.Body)
	}

	// Removing task 0 frees machine 0 for the waiting task.
	w = do(t, s, http.MethodDelete, base+"/tasks/0", "")
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	if !ar.Admitted || ar.NTasks != 3 {
		t.Fatalf("remove: %+v", ar)
	}
	check("remove", ar.Test, true, []int{0, 1, 0}, -1)
	if w := do(t, s, http.MethodPost, base+"/repartition", `{}`); w.Code != http.StatusOK {
		t.Fatalf("repartition after recovery: %d %s", w.Code, w.Body)
	}
}
