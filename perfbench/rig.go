package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rrr"
	"rrr/internal/dataset"
	"rrr/internal/delta"
	"rrr/internal/service"
	"rrr/internal/wal"
)

// rigConfig picks the rrrd flags the benchmark server runs with; the zero
// value is rrrd with default flags.
type rigConfig struct {
	delta, watch bool
	dataDir      string // -data-dir; empty = memory only
	fsync        wal.SyncPolicy
}

// rig is an in-process rrrd: the service and its HTTP handler stack
// assembled as cmd/rrrd assembles them, served on a loopback port and
// driven through a keep-alive HTTP client. The access-log middleware of
// the rrrd binary is the one layer it leaves out.
type rig struct {
	svc      *service.Service
	handler  *service.Server
	store    *wal.Store
	recovery *service.Recovery
	// recoverDur is how long Recover took: snapshot restore, WAL replay
	// and warm-cache readmission.
	recoverDur time.Duration
	base       string
	client     *http.Client
	hs         *http.Server
	served     chan error
}

// startRig builds and starts a server. With a data dir it recovers the
// durable state and writes the baseline snapshot first, as rrrd does at
// boot.
func startRig(cfg rigConfig) (*rig, error) {
	procs := runtime.GOMAXPROCS(0)
	scfg := service.Config{
		Seed:                1,
		SolverOptions:       []rrr.Option{rrr.WithBatchWorkers(procs)},
		Shards:              1,
		ShardWorkers:        procs,
		DeltaMaintenance:    cfg.delta,
		Watch:               cfg.watch,
		WatchBuffer:         64,
		WatchMaxSubscribers: 1024,
	}
	if err := scfg.Validate(); err != nil {
		return nil, err
	}
	r := &rig{svc: service.New(scfg), served: make(chan error, 1)}
	if cfg.dataDir != "" {
		st, err := wal.Open(cfg.dataDir, wal.Options{Sync: cfg.fsync})
		if err != nil {
			return nil, err
		}
		r.store = st
		r.svc.AttachStore(st)
		t0 := time.Now()
		rec, err := r.svc.Recover(context.Background())
		r.recoverDur = time.Since(t0)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
		}
		r.recovery = rec
		if err := r.svc.Persist(); err != nil {
			st.Close()
			return nil, fmt.Errorf("writing baseline snapshot: %w", err)
		}
	}
	r.handler = service.NewServer(r.svc, service.WithRequestTimeout(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if r.store != nil {
			r.store.Close()
		}
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.handler, ReadHeaderTimeout: 10 * time.Second}
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close ends watch streams, drains the HTTP server and closes the store.
func (r *rig) close() error {
	r.svc.CloseWatchers("benchmark done")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if r.store != nil {
		if cerr := r.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// call sends one request and decodes a JSON answer into out, failing on
// any status but want.
func (r *rig) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// registerCSV uploads a table through POST /v1/datasets as an inline CSV
// body, the public registration path.
func (r *rig) registerCSV(name string, t *dataset.Table) error {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, t); err != nil {
		return err
	}
	body := map[string]string{"name": name, "csv": buf.String()}
	return r.call(http.MethodPost, "/v1/datasets", body, http.StatusCreated, nil)
}

// answer is the part of a /v1/representative response the benchmark
// checks.
type answer struct {
	IDs    []int `json:"ids"`
	Cached bool  `json:"cached"`
	Nodes  int   `json:"nodes"`
}

func representativePath(name string, k int, algo string) string {
	q := url.Values{"dataset": {name}, "k": {strconv.Itoa(k)}}
	if algo != "" {
		q.Set("algo", algo)
	}
	return "/v1/representative?" + q.Encode()
}

func (r *rig) representative(path string) (answer, error) {
	var a answer
	err := r.call(http.MethodGet, path, nil, http.StatusOK, &a)
	return a, err
}

// mutation is the part of an append/delete response the benchmark uses.
type mutation struct {
	Generation int64 `json:"generation"`
	Tuples     []struct {
		ID     int    `json:"id"`
		Status string `json:"status"`
	} `json:"tuples"`
}

// mutationRequest is the path and JSON body of a single-operation batch:
// its appends, or else its deletes.
func mutationRequest(name string, b delta.Batch) (string, []byte, error) {
	path := "/v1/datasets/" + url.PathEscape(name)
	if len(b.Append) > 0 {
		body, err := json.Marshal(map[string]any{"rows": b.Append})
		return path + "/append", body, err
	}
	body, err := json.Marshal(map[string]any{"ids": b.Delete})
	return path + "/delete", body, err
}

// mutate sends one single-operation batch and waits for its answer.
func (r *rig) mutate(name string, b delta.Batch) (mutation, error) {
	var m mutation
	path, body, err := mutationRequest(name, b)
	if err != nil {
		return m, err
	}
	err = r.call(http.MethodPost, path, json.RawMessage(body), http.StatusOK, &m)
	return m, err
}

func (r *rig) stats() (service.Snapshot, error) {
	var s service.Snapshot
	err := r.call(http.MethodGet, "/v1/stats", nil, http.StatusOK, &s)
	return s, err
}

// watchEvent is one received SSE event with its arrival time.
type watchEvent struct {
	Type       string `json:"-"`
	Generation int64  `json:"generation"`
	PrevGen    int64  `json:"prev_generation"`
	Class      string `json:"class"`
	IDs        []int  `json:"ids"`
	At         time.Time
}

// watcher is one open GET /v1/watch stream read on its own goroutine.
type watcher struct {
	mu     sync.Mutex
	events []watchEvent
	done   chan struct{}
	err    error
	resp   *http.Response
}

// watch opens a stream and waits until its snapshot event has arrived.
func (r *rig) watch(name string, k int) (*watcher, error) {
	q := url.Values{"dataset": {name}, "k": {strconv.Itoa(k)}}
	resp, err := r.client.Get(r.base + "/v1/watch?" + q.Encode())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("watch %s k=%d: status %d: %s", name, k, resp.StatusCode, b)
	}
	w := &watcher{done: make(chan struct{}), resp: resp}
	first := make(chan struct{})
	go w.read(first)
	select {
	case <-first:
	case <-w.done:
		return nil, fmt.Errorf("watch %s k=%d ended before its snapshot: %v", name, k, w.err)
	case <-time.After(60 * time.Second):
		resp.Body.Close()
		<-w.done
		return nil, fmt.Errorf("watch %s k=%d: no snapshot within 60s", name, k)
	}
	return w, nil
}

// read parses the SSE stream until it ends; closing the response body
// ends it.
func (w *watcher) read(first chan struct{}) {
	defer close(w.done)
	sc := bufio.NewScanner(w.resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var typ string
	signaled := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev := watchEvent{Type: typ, At: time.Now()}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				w.err = err
				return
			}
			w.mu.Lock()
			w.events = append(w.events, ev)
			w.mu.Unlock()
			if !signaled {
				signaled = true
				close(first)
			}
		}
	}
	w.err = sc.Err()
}

// stop closes the stream and waits for its reader to exit.
func (w *watcher) stop() {
	w.resp.Body.Close()
	<-w.done
}

func (w *watcher) snapshot() []watchEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]watchEvent(nil), w.events...)
}
