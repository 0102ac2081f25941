package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"irred/internal/service"
)

// TestStampClusterUID: the splice leaves the client's bytes alone, decodes
// to the same spec with only cluster_uid changed, and copes with every
// shape of object tail the decoder accepts.
func TestStampClusterUID(t *testing.T) {
	full := string(mustJSON(t, clusterRawSpec(3, 40, 9, 2)))
	for _, body := range []string{
		`{}`,
		"{ \n}",
		`{"p":4,"k":2}`,
		full,
		full + " \r\n\t",
		"  " + full + `{"p":1}`,
		`{"p":4,"cluster_uid":""}`,
		`{"cluster_uid":"","p":4}`,
		`{"p":4,"cluster_uid":"client-chosen"}`,
		`{"kernel":"}{"}`,
	} {
		want, end, err := service.DecodeJobSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		stamped := stampClusterUID([]byte(body[:end]), "0123abcd")
		if !bytes.HasPrefix(stamped, []byte(body[:end-1])) {
			t.Fatalf("%s: stamp rewrote the spec's bytes: %s", body, stamped)
		}
		var got service.JobSpec
		if err := json.Unmarshal(stamped, &got); err != nil {
			t.Fatalf("%s: stamped body %s: %v", body, stamped, err)
		}
		want.ClusterUID = "0123abcd"
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stamped body decodes to %+v, want %+v", body, got, want)
		}
	}
	if got := stampClusterUID([]byte("null"), "0123abcd"); string(got) != "null" {
		t.Fatalf("a body that is no object was stamped: %s", got)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post sends body and returns the status code and the response body.
func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return do(t, req)
}

// do sends a JSON request and returns the status code and the response
// body.
func do(t *testing.T, req *http.Request) (int, []byte) {
	t.Helper()
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestClusterBadSpecAnswersJSON: encoding/json's message for an unknown
// field quotes the field name; the router's 400 must still be JSON.
func TestClusterBadSpecAnswersJSON(t *testing.T) {
	fleet := startFleet(t, []string{"n1", "n2"}, nil, nil)
	for _, path := range []string{"/v1/jobs", "/v1/cluster/route"} {
		code, raw := post(t, fleet["n1"].url+path, []byte(`{"p":4,"k":2,"stesp":3}`))
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("%s: 400 body is not JSON: %v: %s", path, err, raw)
		}
		if code != http.StatusBadRequest || !strings.Contains(body.Error, `unknown field "stesp"`) {
			t.Fatalf("%s: HTTP %d %q", path, code, body.Error)
		}
	}
}

// TestSpecEndpointsAgree: a body is a job spec or it is not, whichever
// endpoint reads it. The routing debug endpoint used to decode laxly, so a
// typo'd spec routed and then failed to submit. The node is its keys'
// owner, so /v1/jobs runs it locally, and the forwarded post is what an
// owner gets from another node; a bare daemon's POST /v1/jobs decodes
// through json.Decoder. Each endpoint decodes on its own path. A refusal
// carries the same message after the endpoint's own prefix. "auto" is not
// a JobSpec field, since a served job runs the strategy its client sent,
// and every endpoint refuses it by name.
func TestSpecEndpointsAgree(t *testing.T) {
	fleet := startFleet(t, []string{"n1"}, nil, nil)
	url := fleet["n1"].url
	svc, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	bare := httptest.NewServer(svc.Handler())
	t.Cleanup(bare.Close)
	good := string(mustJSON(t, clusterRawSpec(5, 60, 11, 2)))
	field := func(from, to string) string {
		if !strings.Contains(good, from) {
			t.Fatalf("spec has no %s", from)
		}
		return strings.Replace(good, from, to, 1)
	}
	indented := &bytes.Buffer{}
	if err := json.Indent(indented, []byte(good), "", "\t"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body string
		ok         bool
		why        string // substring a refusal must carry
	}{
		{"canonical", good, true, ""},
		{"indented", indented.String(), true, ""},
		{"upper-case key", field(`"ind":`, `"IND":`), true, ""},
		{"duplicate key", field(`"p":4`, `"p":1,"p":4`), true, ""},
		{"null scalar", field(`"p":4`, `"p":4,"timeout_ms":null`), true, ""},
		{"typo'd field", field(`"steps":`, `"stesp":`), false, ""},
		{"typo'd nested field", field(`"weights":`, `"wieghts":`), false, ""},
		{"string for int", field(`"p":4`, `"p":"4"`), false, ""},
		{"fraction in ind", field(`"ind":[[`, `"ind":[[0.5,`), false, ""},
		{"int32 overflow in ind", field(`"ind":[[`, `"ind":[[2147483648,`), false, ""},
		{"truncated", good[:len(good)/2], false, ""},
		{"removed engine", field(`"p":4`, `"p":4,"engine":"distributed"`), false,
			`engine \"distributed\" was removed; jobs run on the native engine`},
		{"removed chaos key", field(`"p":4`, `"p":4,"chaos":{"seed":1,"drop":0.5}`), false,
			`unknown field \"drop\"`},
		{"removed auto", field(`"p":4`, `"p":4,"auto":true`), false, `unknown field \"auto\"`},
	} {
		first := ""
		for i, ep := range []struct {
			path, url string
			forward   bool
		}{
			{"/v1/jobs", url + "/v1/jobs", false},
			{"forwarded /v1/jobs", url + "/v1/jobs", true},
			{"/v1/cluster/route", url + "/v1/cluster/route", false},
			{"/v1/session", url + "/v1/session?result=0", false},
			{"a bare daemon's /v1/jobs", bare.URL + "/v1/jobs", false},
		} {
			req, err := http.NewRequest(http.MethodPost, ep.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if ep.forward {
				req.Header.Set("X-Irred-Forward", "1")
			}
			code, raw := do(t, req)
			if ok := code < 300; ok != tc.ok || (!ok && code != http.StatusBadRequest) || !bytes.Contains(raw, []byte(tc.why)) {
				t.Errorf("%s: POST %s answered %d: %s", tc.name, ep.path, code, raw)
			}
			if tc.ok {
				continue
			}
			var refusal struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &refusal); err != nil {
				t.Fatalf("%s: POST %s: 400 body is not JSON: %s", tc.name, ep.path, raw)
			}
			msg := refusal.Error
			for _, prefix := range []string{"decoding job spec: ", "decoding session spec: ", "service: invalid job: ", "invalid job: "} {
				msg = strings.TrimPrefix(msg, prefix)
			}
			if i == 0 {
				first = msg
			} else if msg != first {
				t.Errorf("%s: POST %s refused with %q, POST /v1/jobs with %q", tc.name, ep.path, msg, first)
			}
		}
	}
}

// TestClusterForwardStampsClientBytes: a job forwarded by a non-owner
// arrives at the owner carrying a router-minted cluster_uid — also when the
// client sent an explicit empty one, and when whitespace surrounds the
// object, so the decoder's end offset must stop at its closing brace — and
// still computes the oracle.
func TestClusterForwardStampsClientBytes(t *testing.T) {
	fleet := startFleet(t, []string{"n1", "n2", "n3"}, nil, nil)
	spec := clusterRawSpec(9, 900, 101, 2)
	_, owner, _ := routeFor(t, fleet["n1"].url, spec)
	via := "n1"
	if owner == via {
		via = "n2"
	}
	canonical := string(mustJSON(t, spec))
	for _, body := range []string{
		canonical,
		`{"cluster_uid":"",` + canonical[1:],
		canonical + "\n",           // what json.Encoder writes
		"  " + canonical + " \r\n", // whitespace on both sides
	} {
		code, raw := post(t, fleet[via].url+"/v1/jobs?wait=1", []byte(body))
		var st service.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil || code != http.StatusOK {
			t.Fatalf("HTTP %d: %v: %s", code, err, raw)
		}
		checkResult(t, spec, st)
		j, ok := fleet[owner].svc.Job(st.ID)
		if !ok {
			t.Fatalf("owner %s has no job %s", owner, st.ID)
		}
		if uid := j.Spec.ClusterUID; len(uid) != 24 || strings.Trim(uid, "0123456789abcdef") != "" {
			t.Fatalf("owner-side cluster_uid = %q, want the router's 24 hex digits", uid)
		}
	}
	if snap := fleet[via].node.ClusterSnapshot(); snap.Forwards != 4 || snap.Failovers != 0 {
		t.Fatalf("forwards = %d, failovers = %d", snap.Forwards, snap.Failovers)
	}
}

// TestClusterSelfFallbackKeepsUID: when every remote member of a job's
// failover order is unreachable, the node the client reached runs the job
// itself, from the spec it decoded, carrying the cluster_uid it stamped
// for the hops, so a replay of the same submission still dedupes on it.
func TestClusterSelfFallbackKeepsUID(t *testing.T) {
	fleet := startFleet(t, []string{"n1", "n2"}, nil, nil)
	var spec service.JobSpec
	for seed := int64(1); ; seed++ {
		spec = clusterRawSpec(seed, 600, 97, 2)
		if _, owner, _ := routeFor(t, fleet["n1"].url, spec); owner == "n2" {
			break
		}
	}
	fleet["n1"].chaos.Partition("n1", "n2")
	st, resp := submitWait(t, fleet["n1"].url, spec, nil)
	checkResult(t, spec, st)
	if got := resp.Header.Get("X-Irred-Node"); got != "n1" {
		t.Fatalf("served by %q, want the entry node n1", got)
	}
	j, ok := fleet["n1"].svc.Job(st.ID)
	if !ok {
		t.Fatalf("n1 has no job %s", st.ID)
	}
	if uid := j.Spec.ClusterUID; len(uid) != 24 || strings.Trim(uid, "0123456789abcdef") != "" {
		t.Fatalf("self-served cluster_uid = %q, want the router's 24 hex digits", uid)
	}
	if snap := fleet["n1"].node.ClusterSnapshot(); snap.Failovers != 1 || snap.LocalServes != 1 {
		t.Fatalf("failovers = %d, local serves = %d, want 1 and 1", snap.Failovers, snap.LocalServes)
	}
}
