package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"

	flownet "flownet"
	"flownet/internal/core"
	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/teg"
	"flownet/internal/tin"
)

// Verification recomputes served answers apart from the serving path. It
// runs after the timed phase. Every mismatch fails its op.

// relTol is the relative tolerance between two exact engines.
const relTol = 1e-6

// near reports |a-b| <= tol·max(1, |a|, |b|).
func near(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// pairVerifyStride: every pairVerifyStride-th pair answer is recomputed
// with Edmonds–Karp / raw TEG (a fixed sample, since the cyclic pair
// subgraphs are large); every pair answer gets the bounds check.
const pairVerifyStride = 8

// verifyFlow checks one served /flow answer against an independently
// extracted subgraph g (ok = extraction succeeded). exact selects the
// engine recomputation; the bounds check always runs.
func verifyFlow(g *tin.Graph, ok bool, served flownet.FlowResult, exact bool) error {
	if !ok {
		if served.Ok {
			return fmt.Errorf("served ok, independent extraction found no subgraph")
		}
		return nil
	}
	if !served.Ok {
		return fmt.Errorf("served no subgraph, independent extraction found one")
	}
	if served.Interactions != g.NumInteractions() || served.Vertices != g.NumLiveVertices() {
		return fmt.Errorf("served subgraph %dV/%dI, independent %dV/%dI",
			served.Vertices, served.Interactions, g.NumLiveVertices(), g.NumInteractions())
	}
	lo := core.Greedy(g)
	hi := math.Min(outflow(g, g.Source), inflow(g, g.Sink))
	f := served.Flow
	if f < lo-relTol*math.Max(1, lo) || f > hi+relTol*math.Max(1, hi) {
		return fmt.Errorf("flow %v outside [greedy %v, min(source out, sink in) %v]", f, lo, hi)
	}
	if !exact {
		return nil
	}
	var want float64
	if served.Method == "teg" {
		ex := teg.Build(g)
		want = ex.G.EdmondsKarp(ex.S, ex.T)
	} else {
		want = teg.MaxFlow(g) // the unpreprocessed graph, Dinic
	}
	if !near(f, want, relTol) {
		return fmt.Errorf("served flow %v (%s), independent engine %v", f, served.Method, want)
	}
	return nil
}

func outflow(g *tin.Graph, v tin.VertexID) float64 {
	s := 0.0
	g.OutEdges(v, func(e tin.EdgeID) { s += seqQty(g.Edges[e].Seq) })
	return s
}

func inflow(g *tin.Graph, v tin.VertexID) float64 {
	s := 0.0
	g.InEdges(v, func(e tin.EdgeID) { s += seqQty(g.Edges[e].Seq) })
	return s
}

func seqQty(seq []tin.Interaction) float64 {
	s := 0.0
	for _, ia := range seq {
		s += ia.Qty
	}
	return s
}

// extractFor extracts op o's subgraph from n without the server's scratch
// or footprint machinery.
func extractFor(n *tin.Network, o op) (*tin.Graph, bool) {
	var w *tin.TimeWindow
	if o.window != nil {
		w = &tin.TimeWindow{From: o.window[0], To: o.window[1]}
	}
	if o.kind == kindPair {
		g, ok := n.FlowSubgraphBetween(tin.VertexID(o.v), tin.VertexID(o.sink))
		if ok && w != nil {
			g = g.RestrictWindow(w.From, w.To)
		}
		return g, ok
	}
	opts := tin.DefaultExtractOptions()
	if o.maxIA != 0 {
		opts.MaxInteractions = o.maxIA
	}
	opts.Window = w
	return n.ExtractSubgraph(tin.VertexID(o.v), opts)
}

// verification is the outcome of the verification pass.
type verification struct {
	failed  []bool // per timed op
	checked int
	errs    []string
	// final reports a failed whole-run check (ingest totals, recovery).
	final error
}

func (v *verification) fail(i int, format string, args ...any) {
	v.failed[i] = true
	if len(v.errs) < 10 {
		v.errs = append(v.errs, fmt.Sprintf("op %d: ", i)+fmt.Sprintf(format, args...))
	}
}

func (v *verification) mismatches() int {
	c := 0
	for _, f := range v.failed {
		if f {
			c++
		}
	}
	return c
}

// verify checks a pass's answers. Read-only workloads are checked against
// the generated network; ingest-prosper against a network rebuilt from
// the generated one plus every acknowledged batch, at the same point of
// the op sequence.
func verify(e *env, ops []op, p pass) verification {
	v := verification{failed: make([]bool, len(ops))}
	if !e.w.ingest {
		for i, o := range ops {
			r := p.results[i]
			if r.err != nil {
				continue
			}
			g, ok := extractFor(e.base, o)
			exact := o.kind == kindSeed || i%pairVerifyStride == 0
			v.checked++
			if err := verifyFlow(g, ok, r.flow, exact); err != nil {
				v.fail(i, "%v", err)
			}
		}
		return v
	}

	rebuilt, err := e.copyBase()
	if err != nil {
		v.final = err
		return v
	}
	batches, appended := 0, 0
	apply := func(o op) error {
		items := make([]tin.BatchItem, len(o.batch))
		for k, ia := range o.batch {
			items[k] = tin.BatchItem{From: tin.VertexID(ia.From), To: tin.VertexID(ia.To), Time: ia.Time, Qty: ia.Qty}
		}
		k, err := rebuilt.AppendBatch(items)
		batches++
		appended += k
		return err
	}
	for _, o := range e.warm {
		if o.kind == kindIngest {
			if err := apply(o); err != nil {
				v.final = err
				return v
			}
		}
	}
	patternOps := 0
	for _, o := range ops {
		if o.kind == kindPatterns {
			patternOps++
		}
	}
	perRound := len(ingestPatterns)
	seenPatterns := 0
	for i, o := range ops {
		r := p.results[i]
		switch o.kind {
		case kindIngest:
			if r.err != nil {
				continue // not acknowledged: not part of the rebuilt network
			}
			if err := apply(o); err != nil {
				v.final = fmt.Errorf("rebuilding: %v", err)
				return v
			}
			v.checked++
			if r.ing.Generation != uint64(1+batches) {
				v.fail(i, "ingest acknowledged generation %d, rebuilt %d", r.ing.Generation, 1+batches)
			}
		case kindSeed:
			if r.err != nil {
				continue
			}
			g, ok := extractFor(rebuilt, o)
			v.checked++
			if err := verifyFlow(g, ok, r.flow, true); err != nil {
				v.fail(i, "%v", err)
				continue
			}
			if ok {
				want, err := core.PreSim(g, core.EngineLP)
				if err != nil || !near(r.flow.Flow, want.Flow, 1e-9) {
					v.fail(i, "served flow %v, rebuilt network %v (%v)", r.flow.Flow, want.Flow, err)
				}
			}
		case kindPatterns:
			k := seenPatterns
			seenPatterns++
			// SearchGB recomputes the PB answers of the first and the last
			// round, a fixed sample.
			if r.err != nil || (k >= perRound && k < patternOps-perRound) {
				continue
			}
			v.checked++
			want, err := pattern.SearchGB(rebuilt, pattern.ByName(o.pattern), pattern.Options{Engine: core.EngineLP})
			if err != nil || want.Instances != r.pat.Instances || !near(want.TotalFlow, r.pat.TotalFlow, 1e-9) {
				v.fail(i, "PB %s: %d instances, flow %v; GB %d instances, flow %v (%v)",
					o.pattern, r.pat.Instances, r.pat.TotalFlow, want.Instances, want.TotalFlow, err)
			}
		}
	}

	// The served network holds exactly the acknowledged interactions, and
	// a reopened store recovers the same state.
	wantIA := e.base.NumInteractions() + appended
	wantGen := uint64(1 + batches)
	infos, err := e.client.Networks(context.Background())
	if err != nil {
		v.final = err
		return v
	}
	info := infos[ops[0].net]
	if info.Interactions != wantIA || info.Generation != wantGen {
		v.final = fmt.Errorf("served network: %d interactions at generation %d, acknowledged %d at %d",
			info.Interactions, info.Generation, wantIA, wantGen)
		return v
	}
	if rebuilt.NumInteractions() != wantIA {
		v.final = fmt.Errorf("rebuilt network has %d interactions, acknowledged %d", rebuilt.NumInteractions(), wantIA)
		return v
	}
	v.final = checkRecovery(e, ops[0].net, wantIA, wantGen)
	return v
}

// checkRecovery closes the served store and reopens its directory.
func checkRecovery(e *env, name string, wantIA int, wantGen uint64) error {
	e.stopServing()
	if err := e.st.Close(); err != nil {
		return fmt.Errorf("closing store: %v", err)
	}
	e.st = nil
	st, err := store.Open(store.Config{Dir: filepath.Join(e.dir, "data")})
	if err != nil {
		return fmt.Errorf("reopening store: %v", err)
	}
	defer st.Close()
	sh, ok := st.Get(name)
	if !ok {
		return fmt.Errorf("reopened store lost network %q", name)
	}
	if ia, gen := sh.NetStats().Interactions, sh.Generation(); ia != wantIA || gen != wantGen {
		return fmt.Errorf("recovered %d interactions at generation %d, acknowledged %d at %d", ia, gen, wantIA, wantGen)
	}
	return nil
}
