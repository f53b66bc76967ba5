package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"testing"
)

func TestServeDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queue.pushed").Add(3)
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// expvar endpoint carries the published registry snapshot
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	raw, ok := vars["dlion"]
	if !ok {
		t.Fatalf("dlion var missing from /debug/vars: %v", vars)
	}
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["queue.pushed"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}

	// pprof endpoints respond
	if len(get("/debug/pprof/cmdline")) == 0 {
		t.Fatal("pprof cmdline empty")
	}
	get("/debug/pprof/")
}

// TestPublishRebinds: a second Publish of a name must not panic (as
// expvar.Publish would) and must replace the first binding, so a second
// in-process run serves its own values rather than the first run's.
func TestPublishRebinds(t *testing.T) {
	Publish("obs_test_var", func() any { return 1 })
	Publish("obs_test_var", func() any { return 2 })
	if got := expvar.Get("obs_test_var").String(); got != "2" {
		t.Fatalf("obs_test_var = %s, want the latest binding's 2", got)
	}
}
