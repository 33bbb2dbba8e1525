package pattern

import (
	"math"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// InstanceFlow computes the maximum flow through a rigid pattern instance:
// the instance's edges are assembled into a flow graph (splitting the
// anchor of cyclic patterns into source and sink copies) and solved with
// the paper's complete PreSim pipeline. For patterns marked Decomposable
// the pipeline stops at the greedy stage automatically (class A).
func InstanceFlow(n *tin.Network, p *Pattern, inst *Instance, engine core.Engine) (float64, error) {
	g := n.BuildFlowGraph(inst.EdgeIDs, inst.V[p.Source], inst.V[p.Sink])
	res, err := core.PreSim(g, engine)
	if err != nil {
		return 0, err
	}
	return res.Flow, nil
}

// maxPathEdges is the longest path pathArrivals handles: the tables and
// the graph-browsing searchers walk paths of at most three edges.
const maxPathEdges = 3

// pathArrivals runs the greedy algorithm along a path of network edges
// (edges[i].To must equal edges[i+1].From) with an infinite buffer at the
// first vertex, and returns the total flow into the last vertex together
// with its arrival sequence. Vertices are treated positionally, so cyclic
// paths (last vertex = first vertex) are handled correctly: the first
// position acts as the source copy, the last as the sink copy.
//
// By Lemma 1 the result is the path's maximum flow, and by Lemma 3 the
// arrival sequence determines the quantity available at the path's end at
// every time — exactly what the precomputed path tables of Section 5.2
// store.
func pathArrivals(n *tin.Network, edges []tin.EdgeID) (float64, []tin.Interaction) {
	var s pathScratch
	return s.arrivals(n, edges)
}

// pathScratch is pathArrivals' reusable arrival buffer: a table build or
// update runs every path through one scratch, so a row costs exactly one
// allocation for its arrival sequence, sized to fit.
type pathScratch struct {
	arr []tin.Interaction
}

// arrivals is pathArrivals over s's buffer. The returned sequence is a
// fresh exact-length copy (nil when nothing arrives), never s's memory.
func (s *pathScratch) arrivals(n *tin.Network, edges []tin.EdgeID) (float64, []tin.Interaction) {
	k := len(edges)
	// Every edge sequence is sorted by Ord, so the path's event stream is
	// the k-way merge of the sequences; Ords are distinct, so the order is
	// unique.
	var seqs [maxPathEdges][]tin.Interaction
	for i, e := range edges {
		seqs[i] = n.Edge(e).Seq
	}
	var buf [maxPathEdges + 1]float64
	buf[0] = math.Inf(1)
	s.arr = s.arr[:0]
	for {
		pos := -1
		for i := 0; i < k; i++ {
			if len(seqs[i]) > 0 && (pos < 0 || seqs[i][0].Ord < seqs[pos][0].Ord) {
				pos = i
			}
		}
		if pos < 0 {
			break
		}
		ia := seqs[pos][0]
		seqs[pos] = seqs[pos][1:]
		q := math.Min(ia.Qty, buf[pos])
		if q <= 0 {
			continue
		}
		if !math.IsInf(buf[pos], 1) {
			buf[pos] -= q
		}
		buf[pos+1] += q
		if pos+1 == k {
			s.arr = append(s.arr, tin.Interaction{Time: ia.Time, Qty: q, Ord: ia.Ord})
		}
	}
	if len(s.arr) == 0 {
		return buf[k], nil
	}
	return buf[k], append([]tin.Interaction(nil), s.arr...)
}
