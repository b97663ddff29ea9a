package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"partfeas/internal/workload"
)

// jsonDecode is how every request body was decoded before the plain
// reader: encoding/json, unknown fields rejected, over the capped body.
func jsonDecode[T any](body []byte, dst *T) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxRequestBody))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// checkDecode holds one request type's decode path to encoding/json on
// body: a body the plain reader accepts decodes to a deep-equal value
// under encoding/json, and decodeBody as a whole answers what
// encoding/json answers — the same value, or the same error text.
func checkDecode[T any](t *testing.T, body []byte) (plainAccepted bool) {
	t.Helper()
	var want T
	werr := jsonDecode(body, &want)

	// The reader alone, on what a capped read lets through.
	var got T
	p := plain{b: body}
	if len(body) <= maxRequestBody && any(&got).(plainReader).readPlain(&p) && p.end() {
		plainAccepted = true
		if werr != nil {
			t.Fatalf("%T: plain reader accepted a body encoding/json rejects (%v): %q", got, werr, clip(body))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: plain reader read %+v, encoding/json %+v: %q", got, got, want, clip(body))
		}
	}

	var full T
	ferr := decodeBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxRequestBody), int64(len(body)), &full)
	switch {
	case werr != nil && ferr == nil:
		t.Fatalf("%T: decodeBody accepted a body encoding/json rejects (%v): %q", full, werr, clip(body))
	case werr != nil && ferr.Error() != "decoding request: "+werr.Error():
		t.Fatalf("%T: decodeBody error %q, encoding/json %q", full, ferr, werr)
	case werr == nil && ferr != nil:
		t.Fatalf("%T: decodeBody rejected a body encoding/json accepts: %v: %q", full, ferr, clip(body))
	case werr == nil && !reflect.DeepEqual(full, want):
		t.Fatalf("%T: decodeBody read %+v, encoding/json %+v: %q", full, full, want, clip(body))
	}
	return plainAccepted
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return append(b[:300:300], "…"...)
	}
	return b
}

// checkAllDecodes runs checkDecode for every type with a plain reader
// and reports whether any of them accepted body.
func checkAllDecodes(t *testing.T, body []byte) bool {
	t.Helper()
	a := checkDecode[TestRequest](t, body)
	a = checkDecode[MinAlphaRequest](t, body) || a
	a = checkDecode[AnalyzeRequest](t, body) || a
	a = checkDecode[CreateSessionRequest](t, body) || a
	a = checkDecode[AddTaskRequest](t, body) || a
	a = checkDecode[AdmitBatchRequest](t, body) || a
	return a
}

// canonicalBody renders a request the way clients do: encoding/json
// over an instance of n tasks on m machines.
func canonicalBody(t testing.TB, n, m int, extra map[string]any) []byte {
	t.Helper()
	rng := workload.NewRNG(uint64(n*1000 + m))
	plat, err := workload.SpeedsBigLittle.Platform(rng, m)
	if err != nil {
		t.Fatal(err)
	}
	us, err := workload.UUniFast(rng, n, 0.6*plat.TotalSpeed())
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{}
	tasks := make([]TaskJSON, n)
	for i, u := range us {
		p, err := workload.LogUniformPeriod(rng, 10, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = TaskJSON{Name: fmt.Sprintf("t%d", i), WCET: max(1, int64(u*float64(p))), Period: p}
	}
	body["tasks"] = tasks
	speeds := make([]float64, m)
	for j, mc := range plat {
		speeds[j] = mc.Speed
	}
	body["speeds"] = speeds
	for k, v := range extra {
		body[k] = v
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeSeeds are bodies at the edges of the plain subset: canonical
// requests of every type, then each way a body can leave the subset or
// be rejected outright.
func decodeSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{
		canonicalBody(t, 20, 4, map[string]any{"alpha": 2.414, "timeout_ms": 500}),
		canonicalBody(t, 20, 4, map[string]any{"lo": 0.5, "hi": 4, "tol": 1e-6}),
		canonicalBody(t, 20, 4, map[string]any{"exact_budget": 1000}),
		canonicalBody(t, 20, 4, map[string]any{"alpha": 1, "placement": "first_fit_arrival", "deadline_model": "constrained", "scheduler": "edf"}),
		[]byte(`{"tasks":[{"name":"a","wcet":1,"period":4,"deadline":3}],"mode":"all_or_nothing","timeout_ms":10}`),
		[]byte(`{"task":{"name":"a","wcet":1,"period":4},"force":true,"timeout_ms":0}`),
		[]byte(` { "task" : { "wcet" : 1 , "period" : 4 } , "force" : false } ` + "\n"),
		[]byte(`{"tasks":[],"machines":[{"name":"big","speed":2.5},{"speed":1}],"scheduler":"rms"}`),
		[]byte(`{}`),
		// Escaped and non-ASCII names, case-folded and duplicate keys.
		[]byte(`{"tasks":[{"n\u0061me":"v\"x","wcet":1,"period":2}],"speeds":[1]}`),
		[]byte(`{"tasks":[{"name":"caf\u00e9\n","wcet":1,"period":2}],"spe\u0065ds":[1]}`),
		[]byte(`{"tasks":[{"name":"vídeo","wcet":1,"period":2}],"speeds":[1]}`),
		[]byte("{\"tasks\":[{\"name\":\"bad\xff\",\"wcet\":1,\"period\":2}],\"speeds\":[1]}"),
		[]byte(`{"Tasks":[{"WCET":1,"Period":2}],"SPEEDS":[1]}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2,"wcet":3}],"speeds":[1]}`),
		[]byte(`{"tasks":[{"name":"a","wcet":1,"period":2}],"tasks":[{"wcet":3,"period":4}],"speeds":[1]}`),
		[]byte(`{"task":{"wcet":1,"period":2},"task":{"name":"b"}}`),
		[]byte(`{"wcet":1}`),
		// null, everywhere it can stand.
		[]byte(`null`),
		[]byte(`{"tasks":null,"speeds":[1]}`),
		[]byte(`{"tasks":[null],"speeds":[1]}`),
		[]byte(`{"task":null,"force":null}`),
		// Numbers: fractions and exponents in integer fields, -0,
		// int64 overflow, float range edges, non-JSON grammar.
		[]byte(`{"tasks":[{"wcet":1.0,"period":2}],"speeds":[1]}`),
		[]byte(`{"tasks":[{"wcet":1e3,"period":2}],"speeds":[1]}`),
		[]byte(`{"tasks":[{"wcet":-0,"period":2}],"speeds":[-0]}`),
		[]byte(`{"tasks":[{"wcet":9223372036854775807,"period":9223372036854775808}],"speeds":[1]}`),
		[]byte(`{"tasks":[{"wcet":-9223372036854775808,"period":2}],"speeds":[1]}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1e308,1e309]}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1e-324,4.9e-324,2.2250738585072014e-308]}`),
		[]byte(`{"tasks":[{"wcet":01,"period":2}],"speeds":[.5]}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1.],"alpha":+1}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1E+2,1e-2,0.5e1]}`),
		// Wrong types and unknown nested fields.
		[]byte(`{"tasks":[{"wcet":"1","period":2}],"speeds":[true]}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2,"prio":3}],"speeds":[1]}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"machines":[{"speed":1,"cores":2}]}`),
		[]byte(`{"task":{"wcet":1,"period":2},"force":1}`),
		// Trailing bytes, truncation, and an empty body.
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1]} trailing`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1]}{}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1],}`),
		[]byte(`{"tasks":[{"wcet":1,"period":2}],"speeds":[1]`),
		[]byte(``),
		[]byte("\xef\xbb\xbf{}"),
	}
	// Over 1 MiB: a machine list that runs past the cap, and a request
	// followed by more than 1 MiB of whitespace, which encoding/json
	// accepts because the value ends before the cap.
	big := canonicalBody(t, 1, 1, nil)
	big = append(big[:len(big)-1], `,"machines":[`...)
	for len(big) <= maxRequestBody {
		big = append(big, `{"name":"m","speed":1},`...)
	}
	big = append(big[:len(big)-1], "]}"...)
	seeds = append(seeds, big)
	return append(seeds, append(canonicalBody(t, 3, 2, nil), bytes.Repeat([]byte(" "), maxRequestBody+10)...))
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	accepted := 0
	for _, body := range decodeSeeds(t) {
		if checkAllDecodes(t, body) {
			accepted++
		}
	}
	// The canonical bodies must take the plain path, or the reader is
	// dead code.
	if accepted < 9 {
		t.Fatalf("plain reader accepted %d seed bodies, want at least the 9 canonical ones", accepted)
	}
}

// FuzzDecodeRequests holds the request reader to encoding/json: for
// every request type with a plain-subset reader, accepted bodies give
// deep-equal values and rejected bodies identical error text.
func FuzzDecodeRequests(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		if len(body) < 64<<10 { // the over-cap seeds run in the test above
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAllDecodes(t, body)
	})
}

// TestOversizedBody answers 413 with encoding/json's message on every
// endpoint that decodes a body, and still accepts a request whose value
// ends before the cap.
func TestOversizedBody(t *testing.T) {
	s := newTestServer(t)
	big := `{"tasks":[` + strings.Repeat(`{"wcet":1,"period":2},`, maxRequestBody/20) + `{"wcet":1,"period":2}],"speeds":[1]}`
	for _, path := range []string{"/v1/test", "/v1/minalpha", "/v1/analyze", "/v1/sessions", "/v1/sessions/s-1/admit-batch", "/v1/sessions/s-1/test"} {
		w := do(t, s, "POST", path, big)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: code = %d, want 413 (body %.200s)", path, w.Code, w.Body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if want := "decoding request: http: request body too large"; er.Error != want {
			t.Fatalf("%s: error %q, want %q", path, er.Error, want)
		}
	}
	w := do(t, s, "POST", "/v1/test", demoBody+`}`+strings.Repeat(" ", maxRequestBody))
	if w.Code != http.StatusOK {
		t.Fatalf("value ending before the cap: code = %d, want 200 (body %.200s)", w.Code, w.Body)
	}
}

// BenchmarkRequestDecode decodes one /v1/test body of n=1000 tasks on
// m=64 machines (about 45 KB): the plain reader path decode takes
// against encoding/json's strict decode it replaces.
func BenchmarkRequestDecode(b *testing.B) {
	body := canonicalBody(b, 1000, 64, map[string]any{"alpha": 2.414})
	var probe TestRequest
	if p := (plain{b: body}); !probe.readPlain(&p) || !p.end() {
		b.Fatal("the plain reader declined a canonical body")
	}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req TestRequest
			if err := decodeBody(bytes.NewReader(body), int64(len(body)), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req TestRequest
			if err := jsonDecode(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
