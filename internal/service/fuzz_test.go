package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzServer builds a fresh delta-enabled server per input, so every
// input runs against the same state and a failure reproduces alone. It
// holds a 2-D and a 3-D dataset, each with a cached answer, so mutations
// reach revalidation and repair. Inputs drive Server.ServeHTTP directly:
// a panic reaches the fuzz engine instead of net/http's per-connection
// recovery.
func fuzzServer(t *testing.T) *Server {
	svc := New(Config{Seed: 1, DeltaMaintenance: true})
	for _, ds := range []struct {
		name, kind string
		d          int
	}{{"d2", "dot", 2}, {"d3", "bn", 3}} {
		if _, err := svc.Registry().Generate(ds.name, ds.kind, 24, ds.d, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Representative(context.Background(), ds.name, 3, ""); err != nil {
			t.Fatal(err)
		}
	}
	return NewServer(svc)
}

// postFuzz sends body to path and fails on any 5xx: a hostile body is
// the client's fault, never the server's.
func postFuzz(t *testing.T, srv *Server, path, body string) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code >= 500 {
		t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
	}
}

// FuzzMutationRequest throws arbitrary bodies at the append and delete
// endpoints of both datasets.
func FuzzMutationRequest(f *testing.F) {
	for _, seed := range []string{
		`{"rows":[[0.5,0.5]]}`,
		`{"rows":[[1e308,-1e308],[0,0],[0,0]]}`,
		`{"rows":[[0.1,0.2,0.3],[]]}`,
		`{"rows":[]}`,
		`{"ids":[0,1,2]}`,
		`{"ids":[0,0]}`,
		`{"ids":[-1,99999999999]}`,
		`{"ids":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23]}`,
		`{"rows":null,"ids":null}`,
		`{"rows":[[0.5,0.5]]}{"rows":[[0.5,0.5]]}`,
		`[`,
	} {
		for op := uint8(0); op < 4; op++ {
			f.Add(op, seed)
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, body string) {
		name := []string{"d2", "d3"}[op&1]
		verb := []string{"append", "delete"}[op>>1&1]
		postFuzz(t, fuzzServer(t), "/v1/datasets/"+name+"/"+verb, body)
	})
}

// FuzzBatchRequest throws arbitrary bodies at the batch endpoint.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"d2","items":[{"k":3},{"k":5},{"size":2}]}`,
		`{"dataset":"d3","algo":"mdrc","items":[{"k":3},{"size":4}]}`,
		`{"dataset":"d3","algo":"mdrrr","items":[{"k":2}]}`,
		`{"dataset":"d2","algo":"2drrr","items":[{"k":-1},{"k":1000000000},{"size":-5},{"k":3,"size":3},{}]}`,
		`{"dataset":"d2","algo":"bogus","items":[{"k":3}]}`,
		`{"dataset":"nope","items":[{"k":3}]}`,
		`{"dataset":"d2","items":[]}`,
		`{"dataset":"d2","items":[{"k":3}],"extra":1}`,
		`{}`,
		`null`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		postFuzz(t, fuzzServer(t), "/v1/batch", body)
	})
}
