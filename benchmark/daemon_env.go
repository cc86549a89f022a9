package main

// An in-process htiersimd wired as cmd/htiersimd wires a coordinator:
// service.NewHandler over a jobs.Manager whose Run is the fabric
// coordinator's Runner, an on-disk result cache and job journal, a trace
// corpus, and two fabric workers on loopback, each with its own server
// and in-memory cache, executing cells through service.CellRunner one
// at a time. The benchmark drives it only over HTTP.

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
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	hybridtier "repro"
	"repro/internal/corpus"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/service"
)

// fleetWorkers is the fleet size: one per CPU of the reference machine.
const fleetWorkers = 2

// server is one loopback HTTP server the benchmark owns.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("benchmark: listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// daemon is the coordinator daemon plus its fleet.
type daemon struct {
	dir     string
	cache   *jobs.Cache
	store   *corpus.Store
	journal *jobs.Journal
	coord   *fabric.Coordinator
	manager *jobs.Manager
	front   *server
	workers []*server
	stop    context.CancelFunc
	joined  sync.WaitGroup
	client  *client
	hitBuf  bytes.Buffer
	hits    *hitTimer
}

// startDaemon brings the daemon and its fleet up under a fresh directory
// below root and returns once every worker is live. A non-nil ledger
// wraps the coordinator's transport, its Runner and each worker's Runner
// in spans.
func startDaemon(root string, l *ledger, cl *client) (d *daemon, err error) {
	dir, err := os.MkdirTemp(root, "daemon-")
	if err != nil {
		return nil, fmt.Errorf("benchmark: daemon dir: %w", err)
	}
	d = &daemon{dir: dir, client: cl}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.cache, err = jobs.NewCache(256<<20, filepath.Join(dir, "cache")); err != nil {
		return d, err
	}
	if d.store, err = corpus.Open(filepath.Join(dir, "corpus")); err != nil {
		return d, err
	}
	registry.SetCorpusResolver(d.store.Path)
	var resume []jobs.Record
	if d.journal, resume, err = jobs.OpenJournal(filepath.Join(dir, "cache", "journal.wal"), nil); err != nil {
		return d, err
	}
	var transport fabric.Transport = http.DefaultTransport.(*http.Transport).Clone()
	local := service.CellRunner(simWorkers(), d.cache)
	if l != nil {
		transport = tracedTransport{l: l, inner: transport}
		local = tracedRunner(l, "local.run", local)
	}
	d.coord = fabric.NewCoordinator(fabric.Config{Transport: transport, Cache: d.cache, Local: local})
	d.cache.SetRemote(d.coord.ProbeWorkers)
	run := d.coord.Runner()
	if l != nil {
		run = tracedRunner(l, "job.run", run)
	}
	d.manager = jobs.NewManager(jobs.Config{
		Workers: 2, QueueDepth: 64, Run: run, Cache: d.cache, Journal: d.journal, Resume: resume,
	})
	handler := service.NewHandler(service.Config{
		Manager: d.manager, Corpus: d.store, Fabric: d.coord.Handler(),
		Fleet: func() any { return d.coord.Status() },
	})
	d.hits = &hitTimer{inner: handler}
	if d.front, err = serve(d.hits); err != nil {
		return d, err
	}
	ctx, stop := context.WithCancel(context.Background())
	d.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		wcache, err := jobs.NewCache(64<<20, "")
		if err != nil {
			return d, err
		}
		// Fleet workers run one cell at a time, so the whole fleet keeps
		// to the machine's two CPUs.
		wrun := service.CellRunner(1, wcache)
		if l != nil {
			wrun = tracedRunner(l, "worker.run", wrun)
		}
		// The worker's URL is only known once it listens, and the worker
		// needs its URL; a handler indirection breaks the cycle.
		var wh http.Handler
		ws, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { wh.ServeHTTP(w, r) }))
		if err != nil {
			return d, err
		}
		d.workers = append(d.workers, ws)
		wk := fabric.NewWorker(fabric.WorkerConfig{
			Self: ws.url, Coordinator: d.front.url, Run: wrun, Cache: wcache,
		})
		wcache.SetRemote(wk.ProbeCoordinator)
		wh = wk.Handler()
		// Register the worker with the message its Join sends first, so
		// set-up ends when the fleet is live instead of when a poll loop
		// next looks; Join then keeps the heartbeat going.
		body, _ := json.Marshal(map[string]string{"url": ws.url})
		status, data, _, err := cl.do(http.MethodPost, d.front.url+"/fabric/register", body, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("benchmark: register worker: %d %s", status, bytes.TrimSpace(data))
		}
		if err != nil {
			return d, err
		}
		d.joined.Add(1)
		go func() {
			defer d.joined.Done()
			wk.Join(ctx)
		}()
	}
	if live := d.coord.Status().Live; live != fleetWorkers {
		return d, fmt.Errorf("benchmark: %d/%d fleet workers live after registration", live, fleetWorkers)
	}
	return d, nil
}

// close drains the manager, stops the fleet and servers, and removes the
// daemon's directory. It is safe on a partially started daemon.
func (d *daemon) close() {
	if d.stop != nil {
		d.stop()
	}
	d.joined.Wait()
	if d.manager != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		d.manager.Drain(ctx)
		cancel()
	}
	for _, w := range d.workers {
		w.close()
	}
	if d.front != nil {
		d.front.close()
	}
	if d.journal != nil {
		d.journal.Close()
	}
	registry.SetCorpusResolver(nil)
	if d.client != nil {
		d.client.hc.CloseIdleConnections()
	}
	os.RemoveAll(d.dir)
}

// client is the benchmark's HTTP client. Every call is one request span;
// the spans give both the end-to-end latencies and the per-route numbers.
type client struct {
	hc    *http.Client
	mu    sync.Mutex
	spans []span
}

func newClient() *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	return &client{hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}}
}

// routeOf maps a request path to its route pattern.
func routeOf(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 2 && (parts[0] == "results" || parts[0] == "jobs" || parts[0] == "traces"):
		return "/" + parts[0] + "/{id}"
	case len(parts) == 3 && parts[0] == "jobs":
		return "/jobs/{id}/" + parts[2]
	case len(parts) == 3 && parts[0] == "fabric" && parts[1] == "result":
		return "/fabric/result/{hash}"
	}
	return path
}

// do performs one request, reads the whole body, and records its span
// under "METHOD route", plus " 304" for revalidations.
func (c *client) do(method, url string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	return c.doInto(nil, method, url, body, hdr)
}

// doInto is do reading the body into buf, when non-nil, so a hot loop of
// requests does not allocate a body per response. The returned bytes
// alias buf until its next use.
func (c *client) doInto(buf *bytes.Buffer, method, url string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	status := 0
	var h http.Header
	if err == nil {
		if buf != nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			data = buf.Bytes()
		} else {
			data, err = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
		status, h = resp.StatusCode, resp.Header
	}
	name := method + " " + routeOf(req.URL.Path)
	if status == http.StatusNotModified {
		name += " 304"
	}
	c.mu.Lock()
	c.spans = append(c.spans, span{name: name, start: start, end: time.Now(), status: status, err: err != nil})
	c.mu.Unlock()
	return status, data, h, err
}

// takeSpans returns and clears the recorded request spans.
func (c *client) takeSpans() []span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.spans
	c.spans = nil
	return out
}

// submitted is one job as the client saw it.
type submitted struct {
	id, hash string
	result   []byte
	cacheHit bool
	latency  time.Duration // POST → result bytes in hand
}

// submit posts spec, streams its events until the job ends, and fetches
// the result: what `htiersim -submit` does.
func (d *daemon) submit(spec hybridtier.SweepSpec) (submitted, error) {
	var out submitted
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	start := time.Now()
	status, data, _, err := d.client.do(http.MethodPost, d.front.url+"/jobs", body, nil)
	if err != nil {
		return out, err
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		return out, fmt.Errorf("benchmark: POST /jobs: %d %s", status, bytes.TrimSpace(data))
	}
	var info jobs.Info
	if err := json.Unmarshal(data, &info); err != nil {
		return out, fmt.Errorf("benchmark: POST /jobs reply: %w", err)
	}
	out.id, out.hash, out.cacheHit = info.ID, info.Hash, info.CacheHit
	if info.State != jobs.Done {
		if err := d.awaitEvents(info.ID); err != nil {
			return out, err
		}
	}
	status, data, _, err = d.client.do(http.MethodGet, d.front.url+"/results/"+info.Hash, nil, nil)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("benchmark: GET /results: %d %s", status, bytes.TrimSpace(data))
	}
	out.result, out.latency = data, time.Since(start)
	return out, nil
}

// awaitEvents streams a job's NDJSON events until its terminal state.
func (d *daemon) awaitEvents(id string) error {
	status, data, _, err := d.client.do(http.MethodGet, d.front.url+"/jobs/"+id+"/events", nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("benchmark: events: %d", status)
	}
	var last jobs.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("benchmark: event line: %w", err)
		}
	}
	if last.Type != "state" || last.State != jobs.Done {
		return fmt.Errorf("benchmark: job %s ended %s: %s", id, last.State, last.Error)
	}
	return nil
}

// jobInfo fetches one job's snapshot.
func (d *daemon) jobInfo(id string) (jobs.Info, error) {
	var info jobs.Info
	status, data, _, err := d.client.do(http.MethodGet, d.front.url+"/jobs/"+id, nil, nil)
	if err != nil {
		return info, err
	}
	if status != http.StatusOK {
		return info, fmt.Errorf("benchmark: GET /jobs/%s: %d", id, status)
	}
	return info, json.Unmarshal(data, &info)
}

// hitHeader marks the benchmark's cache-hit requests for hitTimer. The
// daemon ignores unknown headers.
const hitHeader = "X-Benchmark-Hit"

// hit fetches an already-computed result; with etag set it revalidates
// and expects 304. It checks the bytes and returns the ETag.
func (d *daemon) hit(hash string, want []byte, etag string) (string, error) {
	hdr := map[string]string{hitHeader: "1"}
	if etag != "" {
		hdr["If-None-Match"] = etag
	}
	status, data, h, err := d.client.doInto(&d.hitBuf, http.MethodGet, d.front.url+"/results/"+hash, nil, hdr)
	if err != nil {
		return "", err
	}
	switch {
	case etag != "" && status == http.StatusNotModified:
	case etag == "" && status == http.StatusOK:
		if !bytes.Equal(data, want) {
			return "", errors.New("benchmark: cache hit served different bytes")
		}
	default:
		return "", fmt.Errorf("benchmark: GET /results (etag %q): status %d", etag, status)
	}
	return h.Get("Etag"), nil
}

// hitTimer wraps the daemon's handler and times the requests marked as
// cache hits inside the daemon, from handler entry to return. On the
// reference VM a loopback round trip switches between latency regimes
// that last tens of milliseconds and move its percentiles by a quarter
// between runs; the time the daemon spends serving does not. The round
// trip is still recorded by the client, per route.
type hitTimer struct {
	inner http.Handler
	mu    sync.Mutex
	ok    []time.Duration // hits answered 200 with the bytes
}

func (h *hitTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(hitHeader) == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.inner.ServeHTTP(sw, r)
	took := time.Since(start)
	if sw.status == http.StatusOK {
		h.mu.Lock()
		h.ok = append(h.ok, took)
		h.mu.Unlock()
	}
}

// served returns the serve times of the 200 hits so far.
func (h *hitTimer) served() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]time.Duration(nil), h.ok...)
}

// statusWriter records the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// upload posts trace bytes to the corpus and returns their content hash.
func (d *daemon) upload(trace []byte) (string, time.Duration, error) {
	start := time.Now()
	status, data, _, err := d.client.do(http.MethodPost, d.front.url+"/traces", trace, nil)
	lat := time.Since(start)
	if err != nil {
		return "", lat, err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return "", lat, fmt.Errorf("benchmark: POST /traces: %d %s", status, bytes.TrimSpace(data))
	}
	var meta struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(data, &meta); err != nil || meta.Hash == "" {
		return "", lat, fmt.Errorf("benchmark: POST /traces reply %q", data)
	}
	return meta.Hash, lat, nil
}
