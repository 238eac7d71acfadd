package shard_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// newerShard is a stand-in for a shard one version newer than the router:
// its list and tenant entries carry members that today's jobs.Status,
// jobs.TenantStats and jobs.Quota do not have.
func newerShard(t *testing.T, list, tenants string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, `{"ok":true}`) })
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, list+"\n") })
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, tenants+"\n") })
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// getBody fetches url and returns its status and body, unparsed.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestRouterRelaysListEntries: the router's list and tenant merges read only
// each job's ID and each tenant's four counters, and relay every other byte
// as the shard wrote it.
func TestRouterRelaysListEntries(t *testing.T) {
	t.Run("shards one version newer", func(t *testing.T) {
		a := newerShard(t,
			`[{"id":"r000002","state":"done","lease":{"epoch":3,"owner":"b"}}]`,
			`{"tenants":[{"tenant":"acme","queued":1,"running":2,"submitted":3,"rejected":4,"weight":2,"quota":{"max_queued":8,"burst_window":"1s"},"priority":"high"}]}`)
		b := newerShard(t,
			`[{"id":"r000001","lease":{"epoch":4,"owner":"a"},"state":"running"},{"id":"r000003","state":"queued","lease":null}]`,
			`{"tenants":[{"tenant":"acme","queued":10,"running":20,"submitted":30,"rejected":40,"weight":2,"quota":{"max_queued":8,"burst_window":"1s"},"priority":"high"},{"tenant":"zeta","queued":0,"running":0,"submitted":1,"rejected":0,"weight":1,"shed":true}]}`)
		rt := newRouter(t, 5*time.Second, a, b)
		tests := []struct {
			path string
			want string
		}{
			{"/v1/jobs", `[{"id":"r000001","lease":{"epoch":4,"owner":"a"},"state":"running"},{"id":"r000002","state":"done","lease":{"epoch":3,"owner":"b"}},{"id":"r000003","state":"queued","lease":null}]`},
			// Members come out in name order; each value as its shard wrote it.
			{"/v1/tenants", `{"tenants":[{"priority":"high","queued":11,"quota":{"max_queued":8,"burst_window":"1s"},"rejected":44,"running":22,"submitted":33,"tenant":"acme","weight":2},{"queued":0,"rejected":0,"running":0,"shed":true,"submitted":1,"tenant":"zeta","weight":1}]}`},
		}
		for _, tt := range tests {
			if code, got := getBody(t, rt.URL+tt.path); code != http.StatusOK || got != tt.want+"\n" {
				t.Errorf("router %s: code %d, body\n%s\nwant 200 and\n%s", tt.path, code, got, tt.want)
			}
		}
	})
	t.Run("one real shard", func(t *testing.T) {
		s := newTestShard(t, jobs.Config{MaxConcurrent: 2}, nil)
		for seed := range int64(3) {
			_, out := postJSON(t, s.ts.URL+"/v1/jobs", specBody("acme", seed+1))
			waitTerminal(t, s.ts.URL, out["id"].(string))
		}
		rt := newRouter(t, 5*time.Second, s.addr())
		for _, path := range []string{"/v1/jobs", "/v1/tenants/acme/jobs"} {
			_, want := getBody(t, s.ts.URL+path)
			if code, got := getBody(t, rt.URL+path); code != http.StatusOK || got != want || !strings.Contains(want, "acme") {
				t.Errorf("router %s: code %d, body\n%s\nwant 200 and the shard's own body\n%s", path, code, got, want)
			}
		}
		var got, want any
		getJSON(t, s.ts.URL+"/v1/tenants", &want)
		if code := getJSON(t, rt.URL+"/v1/tenants", &got); code != http.StatusOK || !reflect.DeepEqual(got, want) {
			t.Errorf("router /v1/tenants: code %d, %v; want 200 and the shard's own %v", code, got, want)
		}
	})
}
