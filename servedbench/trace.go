package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flownet "flownet"
	"flownet/internal/core"
	"flownet/internal/lp"
	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/stream"
	"flownet/internal/teg"
	"flownet/internal/tin"
)

// span is one timed call. Parent is the index of the enclosing span (-1 =
// root) and Op the id of the op it belongs to (-1 = none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// Spans are recorded only while on is set (the traced rounds).
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	client []int32 // op id -> index of its client span (traced ops only)
}

func (t *tracer) begin(name string, parent, op int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, parent, op int32, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// wrap times every request the server handles in a "server<route>" span,
// a child of the op's client span when the request carries an op id.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, op := int32(-1), int32(-1)
		if id, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil && id >= 0 && id < len(t.client) {
			op = int32(id)
			t.mu.Lock()
			parent = t.client[id]
			t.mu.Unlock()
		}
		s := t.begin("server"+r.URL.Path, parent, op)
		h.ServeHTTP(w, r)
		t.end(s)
	})
}

// agg accumulates the spans of one name.
type agg struct {
	n           int
	total, self time.Duration
}

func (a *agg) meanUS() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return us(a.total) / float64(a.n)
}

func (a *agg) meanMS() float64 { return a.meanUS() / 1e3 }

func (a *agg) count() int {
	if a == nil {
		return 0
	}
	return a.n
}

// aggregate sums duration and self time (duration minus the time child
// spans cover) per span name, over spans that belong to an op.
func (t *tracer) aggregate() map[string]*agg {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*agg)
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += s.dur() - child[i]
	}
	return out
}

// write stores the spans as JSON lines under benchDir.
func (t *tracer) write(name string) (string, error) {
	dir := filepath.Join(benchDir, "traces")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ---- library replay ----------------------------------------------------

// tableThreshold mirrors the server's default PB table update threshold.
const tableThreshold = 256

// replica replays ops through the library entry points the handler uses,
// on its own store built like the served one, timing each call.
type replica struct {
	e   *env
	dir string
	st  *store.Store
	sc  *tin.QueryScratch
	// PB tables kept the way the server's table cache keeps them.
	tabs    pattern.Tables
	pending map[tin.EdgeID]struct{}
	full    bool
	// counters
	classes      [3]int
	lpVars, arcs int
	extractIA    int
	footprint    int
	walBytes     float64
	walItems     int
	flowMismatch int
}

func newReplica(e *env, rounds int) (*replica, error) {
	r := &replica{e: e, sc: tin.NewQueryScratch()}
	cfg := store.Config{}
	if e.w.durable {
		dir, err := os.MkdirTemp(benchDir, "replica-")
		if err != nil {
			return nil, err
		}
		r.dir, cfg.Dir = dir, filepath.Join(dir, "data")
	}
	st, err := store.Open(cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.st = st
	st.SubscribeDelta(r.onDelta)
	for _, name := range e.w.netNames(rounds) {
		n, err := e.copyBase()
		if err != nil {
			r.close()
			return nil, err
		}
		if _, err := st.Add(name, n); err != nil {
			r.close()
			return nil, err
		}
	}
	if e.w.precompute {
		sh, _ := st.Get(e.w.netNames(rounds)[0])
		sh.View(func(n *tin.Network, _ uint64) { r.tabs = pattern.Precompute(n, true) })
	}
	// Bring the replica to the state the warm-up left the server in.
	for _, o := range e.warm {
		if err := r.replay(nil, -1, o, result{}); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// onDelta folds a change into the pending table delta, as the server's
// table cache does.
func (r *replica) onDelta(_ string, _ uint64, d stream.Delta) {
	if r.full {
		return
	}
	if d.Full {
		r.full, r.pending = true, nil
		return
	}
	if r.pending == nil {
		r.pending = make(map[tin.EdgeID]struct{})
	}
	for _, e := range d.Edges {
		r.pending[e] = struct{}{}
	}
	if len(r.pending) > tableThreshold {
		r.full, r.pending = true, nil
	}
}

func (r *replica) close() {
	if r.st != nil {
		r.st.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// replay runs op i through the library, recording spans on t. With a nil
// t it only keeps the replica in step: reads, which change nothing, are
// skipped. served is the op's served answer; a served cache hit replays
// only what the handler does before its cache lookup.
func (r *replica) replay(t *tracer, i int32, o op, served result) error {
	if t == nil && o.kind.isFlow() {
		return nil
	}
	sp := func(name string, parent int32, fn func()) {
		if t == nil {
			fn()
			return
		}
		t.timed(name, parent, i, fn)
	}
	root := int32(-1)
	if t != nil {
		root = t.begin("replay/"+o.kind.String(), -1, i)
		defer t.end(root)
	}
	sh, ok := r.st.Get(o.net)
	if !ok {
		return fmt.Errorf("replica has no network %q", o.net)
	}
	if o.kind == kindIngest {
		items := make([]stream.Item, len(o.batch))
		for k, ia := range o.batch {
			items[k] = stream.Item{From: tin.VertexID(ia.From), To: tin.VertexID(ia.To), Time: ia.Time, Qty: ia.Qty}
		}
		d0 := sh.Durability()
		var res stream.Result
		var err error
		sp("store.append", root, func() { res, err = sh.Append(items, stream.Options{}) })
		if err != nil {
			return err
		}
		if d1 := sh.Durability(); d1.WALRecordsPending == d0.WALRecordsPending+1 {
			r.walBytes += float64(d1.WALBytesPending - d0.WALBytesPending)
			r.walItems += len(items)
		}
		sp("server.encode", root, func() {
			json.Marshal(flownet.IngestResult{Network: o.net, Appended: res.Appended, Generation: res.Generation})
		})
		return nil
	}

	var n *tin.Network
	var release func()
	sp("store.acquire", root, func() { n, _, release = sh.Acquire() })
	defer release()
	if served.cache == "hit" {
		return nil
	}
	if o.kind == kindPatterns {
		return r.search(sp, root, n, o, served)
	}
	var g *tin.Graph
	var foot []tin.VertexID
	sp("tin.extract", root, func() {
		if o.kind == kindSeed {
			opts := tin.DefaultExtractOptions()
			if o.maxIA != 0 {
				opts.MaxInteractions = o.maxIA
			}
			if o.window != nil {
				opts.Window = &tin.TimeWindow{From: o.window[0], To: o.window[1]}
			}
			g, ok, foot = n.ExtractSubgraphFootprintScratch(tin.VertexID(o.v), opts, r.sc)
		} else {
			var w *tin.TimeWindow
			if o.window != nil {
				w = &tin.TimeWindow{From: o.window[0], To: o.window[1]}
			}
			g, ok, foot = n.FlowSubgraphBetweenFootprintScratch(tin.VertexID(o.v), tin.VertexID(o.sink), w, r.sc)
		}
	})
	r.footprint += len(foot)
	if ok {
		r.extractIA += g.NumInteractions()
		flow, err := r.solve(sp, root, g)
		if err != nil {
			return err
		}
		if t != nil && (served.err != nil || !served.flow.Ok || flow != served.flow.Flow) {
			r.flowMismatch++
		}
	}
	sp("server.encode", root, func() { json.Marshal(served.flow) })
	return nil
}

// solve is core.PreSim (or the handler's TEG fallback for cyclic graphs),
// one library call per span.
func (r *replica) solve(sp func(string, int32, func()), root int32, g *tin.Graph) (float64, error) {
	var flow float64
	var dag bool
	sp("tin.is_dag", root, func() { dag = g.IsDAG() })
	if !dag {
		var ex *teg.Expanded
		sp("teg.build", root, func() { ex = teg.Build(g) })
		r.arcs += ex.G.NumArcs()
		sp("maxflow.dinic", root, func() { flow = ex.G.Dinic(ex.S, ex.T) })
		return flow, nil
	}
	var soluble bool
	sp("core.greedy", root, func() {
		if soluble = core.GreedySoluble(g); soluble {
			flow = core.Greedy(g)
		}
	})
	if soluble {
		r.classes[core.ClassA]++
		return flow, nil
	}
	h := g.Clone()
	var err error
	sp("core.preprocess", root, func() {
		if _, err = core.Preprocess(h); err == nil && !core.ZeroFlow(h) {
			if soluble = core.GreedySoluble(h); soluble {
				flow = core.Greedy(h)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	if core.ZeroFlow(h) || soluble {
		r.classes[core.ClassB]++
		return flow, nil
	}
	r.classes[core.ClassC]++
	sp("core.simplify", root, func() {
		core.Simplify(h)
		if !core.ZeroFlow(h) {
			if soluble = core.GreedySoluble(h); soluble {
				flow = core.Greedy(h)
			}
		}
	})
	if core.ZeroFlow(h) || soluble {
		return flow, nil
	}
	sp("lp.solve", root, func() {
		m := core.BuildLP(h)
		r.lpVars += m.Prob.NumVars()
		var sol *lp.Solution
		if sol, err = lp.Solve(m.Prob); err == nil {
			flow = sol.Objective + m.ConstFlow
		}
	})
	return flow, err
}

// search brings the PB tables up to date the way the server's table cache
// does, then runs the PB search.
func (r *replica) search(sp func(string, int32, func()), root int32, n *tin.Network, o op, served result) error {
	switch {
	case r.full:
		sp("pattern.precompute", root, func() { r.tabs = pattern.Precompute(n, true) })
	case len(r.pending) > 0:
		changed := make([]tin.EdgeID, 0, len(r.pending))
		for e := range r.pending {
			changed = append(changed, e)
		}
		sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })
		sp("pattern.update", root, func() { r.tabs = r.tabs.Update(n, changed) })
	}
	r.pending, r.full = nil, false
	var sum pattern.Summary
	var err error
	sp("pattern.search_pb", root, func() {
		sum, err = pattern.SearchPB(n, r.tabs, pattern.ByName(o.pattern), pattern.Options{Engine: core.EngineLP})
	})
	if err != nil {
		return err
	}
	sp("server.encode", root, func() { json.Marshal(served.pat) })
	if root >= 0 && (sum.Instances != served.pat.Instances || !near(sum.TotalFlow, served.pat.TotalFlow, 1e-9)) {
		r.flowMismatch++
	}
	return nil
}

// replayTotal sums the replay root spans: the library time along the
// request path, which plus transport is what the client waits for.
func replayTotal(a map[string]*agg) time.Duration {
	var d time.Duration
	for name, x := range a {
		if strings.HasPrefix(name, "replay/") {
			d += x.total
		}
	}
	return d
}
