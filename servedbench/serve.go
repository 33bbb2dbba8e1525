package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	flownet "flownet"
	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/server"
	"flownet/internal/store"
	"flownet/internal/tin"
)

// env is one set-up of a workload: a store and a server with flownetd's
// defaults, served on a loopback listener and driven by one flownet.Client
// with retries off.
type env struct {
	w       *workload
	dir     string // durable store directory ("" = in-memory store)
	st      *store.Store
	srv     *server.Server
	hs      *http.Server
	served  chan error
	tr      *http.Transport
	client  *flownet.Client
	base    *tin.Network // the generated network; never registered
	image   []byte       // base's binary image, decoded for every copy
	warm    []op
	genTime time.Duration // datagen time
	preTime time.Duration // PB table precompute time (0 when not built)
	// cacheStatus is the X-Flownet-Cache header of the last response (the
	// client is driven from one goroutine, so one slot suffices).
	cacheStatus string
}

// benchDir is where the benchmark keeps its scratch files (durable
// stores, traces): inside the checkout, next to the build.
const benchDir = ".bench_build"

// setUp generates the workload's network, registers rounds copies (or the
// workload's fixed set) with a fresh store, starts serving, and runs the
// untimed warm-up. With a tracer, the server's handler is wrapped in spans
// and the client stamps each request with its op id.
func setUp(w *workload, rounds int, t *tracer) (*env, error) {
	e := &env{w: w}
	t0 := time.Now()
	e.base = datagen.Generate(w.dataset, w.cfg)
	e.genTime = time.Since(t0)
	var buf bytes.Buffer
	if err := tin.WriteNetworkBinary(&buf, e.base); err != nil {
		return nil, err
	}
	e.image = buf.Bytes()

	cfg := store.Config{}
	if w.durable {
		if err := os.MkdirAll(benchDir, 0o777); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(benchDir, "store-")
		if err != nil {
			return nil, err
		}
		e.dir, cfg.Dir = dir, filepath.Join(dir, "data")
	}
	st, err := store.Open(cfg)
	if err != nil {
		e.tearDown()
		return nil, err
	}
	e.st = st
	e.srv = server.New(server.Config{
		CacheSize:   4096,
		Engine:      core.EngineLP,
		AllowIngest: w.ingest,
		Store:       st,
	})
	for _, name := range w.netNames(rounds) {
		n, err := e.copyBase()
		if err != nil {
			e.tearDown()
			return nil, err
		}
		if err := e.srv.AddNetwork(name, n); err != nil {
			e.tearDown()
			return nil, err
		}
	}
	if w.precompute {
		t0 := time.Now()
		e.srv.PrecomputeTables()
		e.preTime = time.Since(t0)
	}
	if err := e.serve(t); err != nil {
		e.tearDown()
		return nil, err
	}
	e.warm = w.warmup(e.base)
	for i, o := range e.warm {
		if _, err := e.do(context.Background(), o); err != nil {
			e.tearDown()
			return nil, fmt.Errorf("warm-up op %d (%s): %w", i, o.kind, err)
		}
	}
	return e, nil
}

// copyBase decodes a fresh copy of the generated network.
func (e *env) copyBase() (*tin.Network, error) {
	return tin.ReadNetworkBinary(bytes.NewReader(e.image))
}

// serve starts the HTTP server on a loopback port and the client.
func (e *env) serve(t *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := e.srv.Handler()
	e.tr = &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	var rt http.RoundTripper = e.tr
	if t != nil {
		h, rt = t.wrap(h), stampTransport{e.tr}
	}
	// The read-side timeouts of server.Server.Serve.
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: time.Minute, IdleTimeout: 2 * time.Minute}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = flownet.NewClient("http://" + ln.Addr().String()).
		WithHTTPClient(&http.Client{Transport: rt, Timeout: 2 * time.Minute}).
		WithRetryPolicy(flownet.RetryPolicy{MaxAttempts: 1}).
		WithObserver(func(a flownet.Attempt) { e.cacheStatus = a.CacheStatus })
	return nil
}

// stopServing shuts the HTTP server down and waits for it.
func (e *env) stopServing() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.tr.CloseIdleConnections()
	e.hs = nil
}

// tearDown stops serving, closes the store and removes its directory.
func (e *env) tearDown() {
	e.stopServing()
	if e.st != nil {
		e.st.Close()
		e.st = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// result is what one executed op returned.
type result struct {
	lat   time.Duration
	err   error
	cache string
	flow  flownet.FlowResult
	pat   flownet.PatternResult
	ing   flownet.IngestResult
}

// do sends one op through the client and returns its answer.
func (e *env) do(ctx context.Context, o op) (result, error) {
	var r result
	var err error
	switch o.kind {
	case kindSeed, kindPair:
		opts := &flownet.FlowQueryOptions{MaxInteractions: o.maxIA}
		if o.window != nil {
			opts.WindowFrom, opts.WindowTo = &o.window[0], &o.window[1]
		}
		if o.kind == kindSeed {
			r.flow, err = e.client.SeedFlow(ctx, o.net, flownet.VertexID(o.v), opts)
		} else {
			r.flow, err = e.client.Flow(ctx, o.net, flownet.VertexID(o.v), flownet.VertexID(o.sink), opts)
		}
	case kindPatterns:
		r.pat, err = e.client.Patterns(ctx, o.net, o.pattern, "pb", nil)
	case kindIngest:
		r.ing, err = e.client.Ingest(ctx, flownet.IngestRequest{Network: o.net, Interactions: o.batch})
		if err == nil && r.ing.Appended != len(o.batch) {
			err = fmt.Errorf("ingest appended %d of %d interactions", r.ing.Appended, len(o.batch))
		}
	}
	r.cache = e.cacheStatus
	return r, err
}

// pass is the outcome of replaying an op list once.
type pass struct {
	results []result // one per op, rounds concatenated
	rounds  []round
	wall    time.Duration
	steal   int64 // steal ticks accrued during the pass (-1 = unknown)
}

// round is the timing of one round of a pass.
type round struct {
	first, end int // op index range [first, end)
	wall, cpu  time.Duration
	rt0, rt1   runtimeSample
	traced     bool
}

// run replays the rounds in order, one request in flight, timing each op
// on the client and each round's wall and CPU time. With a tracer, every
// second round is traced: each call is a "client" span and carries its op
// id to the server, whose handler spans are recorded for that round only.
func (e *env) run(rounds [][]op, t *tracer) pass {
	ops := flatten(rounds)
	p := pass{results: make([]result, len(ops))}
	runtime.GC() // set-up garbage is not the timed phase's
	s0 := stealTicks()
	start := time.Now()
	i := 0
	for ri, ro := range rounds {
		rd := round{first: i, traced: t != nil && ri%2 == 1}
		if t != nil {
			t.on.Store(rd.traced)
		}
		rd.rt0 = readRuntime()
		c0, w0 := cpuTime(), time.Now()
		for _, o := range ro {
			ctx, sp := context.Background(), int32(-1)
			if rd.traced {
				ctx = context.WithValue(ctx, opKey{}, i)
				sp = t.begin("client", -1, int32(i))
				t.mu.Lock()
				t.client[i] = sp
				t.mu.Unlock()
			}
			t0 := time.Now()
			r, err := e.do(ctx, o)
			r.lat = time.Since(t0)
			if rd.traced {
				t.end(sp)
			}
			r.err = err
			p.results[i] = r
			i++
		}
		rd.end, rd.wall, rd.cpu = i, time.Since(w0), cpuTime()-c0
		rd.rt1 = readRuntime()
		p.rounds = append(p.rounds, rd)
	}
	if t != nil {
		t.on.Store(false)
	}
	p.wall = time.Since(start)
	if s1 := stealTicks(); s0 >= 0 && s1 >= 0 {
		p.steal = s1 - s0
	} else {
		p.steal = -1
	}
	return p
}

// stats fetches the server's /stats.
func (e *env) stats() (flownet.StatsResult, error) {
	return e.client.Stats(context.Background())
}

// opHeader carries the op id from the traced client to the traced handler.
const opHeader = "X-Servedbench-Op"

type opKey struct{}

// stampTransport copies the op id of the request context into opHeader.
type stampTransport struct{ base http.RoundTripper }

func (t stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(opKey{}).(int); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(req)
}
