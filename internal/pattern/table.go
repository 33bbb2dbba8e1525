package pattern

import (
	"cmp"
	"fmt"

	"flownet/internal/tin"
)

// Row is one precomputed path: Verts lists the path's vertices starting at
// the anchor (for cycles the closing return to the anchor is implicit),
// Edges the network edges along it, Flow the path's maximum flow, and Arr
// the greedy arrival sequence at the path's final vertex (Section 5.2
// stores exactly this pair of vertex sequence and arrival sequence).
type Row struct {
	Verts []tin.VertexID
	Edges []tin.EdgeID
	Flow  float64
	Arr   []tin.Interaction
}

// Anchor returns the path's starting vertex.
func (r *Row) Anchor() tin.VertexID { return r.Verts[0] }

// Last returns the path's final distinct vertex (for cycles, the last
// intermediate before returning to the anchor; for chains, the end vertex).
func (r *Row) Last() tin.VertexID { return r.Verts[len(r.Verts)-1] }

// Table is a precomputed path table: all cycles (or chains) of a fixed hop
// count, grouped contiguously by anchor in ascending anchor order — the
// layout that the merge joins of Section 5.2 rely on.
type Table struct {
	Hops   int
	Cyclic bool
	Rows   []Row

	// start indexes the anchor groups: anchor a's rows are
	// Rows[start[a]:start[a+1]]. It spans the vertices of the network the
	// table was built or last updated on; later vertices have no rows.
	start []int32
}

// RowsFor returns the contiguous row group of the given anchor (nil when
// the anchor has none).
func (t *Table) RowsFor(anchor tin.VertexID) []Row {
	if anchor < 0 || int(anchor)+1 >= len(t.start) {
		return nil
	}
	rows := t.Rows[t.start[anchor]:t.start[anchor+1]]
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// rowsBefore returns how many rows belong to anchors below a.
func (t *Table) rowsBefore(a int) int {
	if a >= len(t.start) {
		return len(t.Rows)
	}
	return int(t.start[a])
}

// Anchors iterates over the distinct anchors in ascending order.
func (t *Table) Anchors(fn func(anchor tin.VertexID, rows []Row)) {
	start := 0
	for start < len(t.Rows) {
		a := t.Rows[start].Anchor()
		end := start
		for end < len(t.Rows) && t.Rows[end].Anchor() == a {
			end++
		}
		fn(a, t.Rows[start:end])
		start = end
	}
}

// NumInteractions returns the total size of the stored arrival sequences,
// the dominant storage cost of the table.
func (t *Table) NumInteractions() int {
	total := 0
	for i := range t.Rows {
		total += len(t.Rows[i].Arr)
	}
	return total
}

// path is one enumerated table path before its flow is computed: the
// vertex and edge sequences a Row stores, fixed-size so that enumeration
// allocates nothing.
type path struct {
	verts [3]tin.VertexID
	edges [3]tin.EdgeID
}

// compare orders paths by the table's sort key (anchor, Edges[0],
// Edges[1]). Adjacency lists are ascending by edge id, so Precompute emits
// rows in exactly this order, and the key is unique: Edges[0] and Edges[1]
// fix every path of every table shape.
func (p *path) compare(q *path) int {
	return cmp.Or(cmp.Compare(p.verts[0], q.verts[0]), compareEdges(p.edges[:], q.edges[:]))
}

// compareEdges orders two paths of one anchor by (Edges[0], Edges[1]).
func compareEdges(e, f []tin.EdgeID) int {
	return cmp.Or(cmp.Compare(e[0], f[0]), cmp.Compare(e[1], f[1]))
}

// numVerts is the length of a row's Verts: L2 stores a→b, L3 and C2
// a→b→c. Every row has Hops edges.
func (t *Table) numVerts() int {
	if t.Cyclic && t.Hops == 2 {
		return 2
	}
	return 3
}

// pathsThrough appends to dst every path of the table's shape whose edge
// at position pos (0 = the anchor's out-edge) is e, and returns the
// extended slice. Each call is one O(degree) walk around e plus HasEdge
// probes. For pos 0 the paths come out ascending by Edges[1], so walking
// an anchor's out-edges in order with pos 0 yields that anchor's rows in
// table order — the single enumerator behind both Precompute and Update.
func (t *Table) pathsThrough(n *tin.Network, e tin.EdgeID, pos int, dst []path) []path {
	ed := n.Edge(e)
	u, v := ed.From, ed.To
	if u == v {
		return dst
	}
	switch {
	case t.Cyclic && t.Hops == 2: // a→b→a
		back, ok := n.HasEdge(v, u)
		if !ok {
			return dst
		}
		if pos == 0 { // e = (a,b)
			return append(dst, path{verts: [3]tin.VertexID{u, v}, edges: [3]tin.EdgeID{e, back}})
		}
		// e = (b,a)
		return append(dst, path{verts: [3]tin.VertexID{v, u}, edges: [3]tin.EdgeID{back, e}})
	case t.Cyclic: // a→b→c→a
		switch pos {
		case 0: // e = (a,b)
			for _, e2 := range n.OutEdges(v) {
				c := n.Edge(e2).To
				if c == u || c == v {
					continue
				}
				if e3, ok := n.HasEdge(c, u); ok {
					dst = append(dst, path{verts: [3]tin.VertexID{u, v, c}, edges: [3]tin.EdgeID{e, e2, e3}})
				}
			}
		case 1: // e = (b,c)
			for _, e1 := range n.InEdges(u) {
				a := n.Edge(e1).From
				if a == u || a == v {
					continue
				}
				if e3, ok := n.HasEdge(v, a); ok {
					dst = append(dst, path{verts: [3]tin.VertexID{a, u, v}, edges: [3]tin.EdgeID{e1, e, e3}})
				}
			}
		default: // e = (c,a)
			for _, e1 := range n.OutEdges(v) {
				b := n.Edge(e1).To
				if b == u || b == v {
					continue
				}
				if e2, ok := n.HasEdge(b, u); ok {
					dst = append(dst, path{verts: [3]tin.VertexID{v, b, u}, edges: [3]tin.EdgeID{e1, e2, e}})
				}
			}
		}
	default: // chains a→b→c
		if pos == 0 { // e = (a,b)
			for _, e2 := range n.OutEdges(v) {
				c := n.Edge(e2).To
				if c == u || c == v {
					continue
				}
				dst = append(dst, path{verts: [3]tin.VertexID{u, v, c}, edges: [3]tin.EdgeID{e, e2}})
			}
			return dst
		}
		for _, e1 := range n.InEdges(u) { // e = (b,c)
			a := n.Edge(e1).From
			if a == u || a == v {
				continue
			}
			dst = append(dst, path{verts: [3]tin.VertexID{a, u, v}, edges: [3]tin.EdgeID{e1, e}})
		}
	}
	return dst
}

// row computes p's flow and arrival sequence on n and materializes it as
// a table row with its own Verts and Edges slices.
func (t *Table) row(n *tin.Network, p *path, sc *pathScratch) Row {
	verts := make([]tin.VertexID, t.numVerts())
	copy(verts, p.verts[:])
	edges := make([]tin.EdgeID, t.Hops)
	copy(edges, p.edges[:])
	flow, arr := sc.arrivals(n, edges)
	return Row{Verts: verts, Edges: edges, Flow: flow, Arr: arr}
}

// precompute fills an empty table with every path of its shape, anchor by
// anchor in ascending vertex order and within an anchor in adjacency (DFS)
// order — the same deterministic order the graph-browsing searchers use,
// so GB and PB results are comparable exactly.
func (t *Table) precompute(n *tin.Network) *Table {
	var sc pathScratch
	var paths []path
	nv := n.NumVertices()
	t.start = make([]int32, nv+1)
	for a := 0; a < nv; a++ {
		t.start[a] = int32(len(t.Rows))
		for _, e1 := range n.OutEdges(tin.VertexID(a)) {
			paths = t.pathsThrough(n, e1, 0, paths[:0])
			for i := range paths {
				t.Rows = append(t.Rows, t.row(n, &paths[i], &sc))
			}
		}
	}
	t.start[nv] = int32(len(t.Rows))
	return t
}

// PrecomputeCycles builds the table of all simple cycles of exactly the
// given hop count (2 → L2: a→b→a; 3 → L3: a→b→c→a), with per-row greedy
// flows and arrival sequences.
func PrecomputeCycles(n *tin.Network, hops int) *Table {
	if hops != 2 && hops != 3 {
		panic(fmt.Sprintf("pattern: unsupported cycle hops %d", hops))
	}
	return (&Table{Hops: hops, Cyclic: true}).precompute(n)
}

// PrecomputeChains builds the table of all 2-hop chains a→b→c over three
// distinct vertices (C2), which the paper precomputes for the Prosper
// Loans dataset only.
func PrecomputeChains(n *tin.Network) *Table {
	return (&Table{Hops: 2, Cyclic: false}).precompute(n)
}

// Tables bundles the precomputed tables used by the PB searcher.
type Tables struct {
	L2 *Table // 2-hop cycles
	L3 *Table // 3-hop cycles
	C2 *Table // 2-hop chains (optional; nil when not precomputed)
}

// Precompute builds L2 and L3, and C2 as well when withChains is set
// (the paper could afford the chain table only on Prosper Loans).
func Precompute(n *tin.Network, withChains bool) Tables {
	t := Tables{
		L2: PrecomputeCycles(n, 2),
		L3: PrecomputeCycles(n, 3),
	}
	if withChains {
		t.C2 = PrecomputeChains(n)
	}
	return t
}
