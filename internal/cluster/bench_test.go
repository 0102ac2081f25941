package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"irred/internal/service"
)

// BenchmarkOwnerSubmit is one job on the node that owns it, through the
// node's own handler and a recorder (no sockets): the benchmark's raw job
// shape (32,768 iterations × 2 references over 4,096 elements, pair
// weights, P = 2, k = 2, cyclic, 4 sweeps) as ?wait=1&result=0 on a warm
// schedule cache, so an op is ingest, admission and the executor.
// forwarded is the post another node's router sends (X-Irred-Forward: 1),
// local a client's post to the owner itself.
func BenchmarkOwnerSubmit(b *testing.B) {
	n, err := New(Config{Self: "n1"})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(service.Options{Workers: 1, MaxFinished: 16, TraceSpans: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	n.Attach(svc)
	h := n.Handler()
	spec := clusterRawSpec(1, 32768, 4096, 4)
	spec.P, spec.Dist, spec.Contrib.Kind = 2, "cyclic", "pair"
	body := mustJSON(b, spec)
	for _, row := range []struct {
		name, forward string
	}{{"forwarded", "1"}, {"local", ""}} {
		b.Run(row.name, func(b *testing.B) {
			submit := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1&result=0", bytes.NewReader(body))
				req.Header.Set("X-Irred-Forward", row.forward)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
				}
			}
			submit() // warms the schedule cache
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
		})
	}
}
