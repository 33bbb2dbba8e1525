package pattern

import (
	"sort"

	"flownet/internal/tin"
)

// The anchor-level table update that Table.Update replaced, kept verbatim
// (as functions over the table) as a second oracle for the row-level
// updater: it recomputes every row group whose anchor a changed edge can
// reach and carries the other groups over.
//
// Delta updates (footnote 2 of the paper): interaction networks grow over
// time, and rebuilding the path tables from scratch after every batch of
// new interactions is wasteful. anchorLevelUpdate refreshes a table
// against the new network state by recomputing only the row groups whose
// anchor can be affected by a changed edge; all other groups are carried
// over.
//
// Requirements on the new network state n: it must be append-derived from
// the network the table was built on — existing edges keep their EdgeIDs
// (tin.Network assigns edge ids by first appearance, so appending
// interactions preserves them) and existing interactions keep their
// relative canonical order (appends always do: the canonical order is
// (time, insertion index), and surviving rows are only compared within
// themselves). `changed` lists the ids, in n, of edges that are new or
// received new interactions.
//
// Affected anchors for a changed edge (u, v):
//   - 2-hop cycles a→b→a: the edge is either (a,b) or (b,a) → anchors u, v.
//   - 3-hop cycles a→b→c→a: the edge is (a,b) (anchor u), (b,c) (anchor is
//     an in-neighbor of u), or (c,a) (anchor v).
//   - 2-hop chains a→b→c: the edge is (a,b) (anchor u) or (b,c) (anchors
//     are in-neighbors of u).
func anchorLevelUpdate(t *Table, n *tin.Network, changed []tin.EdgeID) *Table {
	affected := make(map[tin.VertexID]bool)
	for _, e := range changed {
		ed := n.Edge(e)
		u, v := ed.From, ed.To
		switch {
		case t.Cyclic && t.Hops == 2:
			affected[u] = true
			affected[v] = true
		case t.Cyclic && t.Hops == 3:
			affected[u] = true
			affected[v] = true
			for _, in := range n.InEdges(u) {
				affected[n.Edge(in).From] = true
			}
		default: // 2-hop chains
			affected[u] = true
			for _, in := range n.InEdges(u) {
				affected[n.Edge(in).From] = true
			}
		}
	}

	out := &Table{Hops: t.Hops, Cyclic: t.Cyclic}
	// Carry over unaffected groups and recompute affected ones, keeping the
	// ascending-anchor layout. Affected anchors without existing groups
	// (new cycle sources) are computed too.
	anchors := make([]tin.VertexID, 0, len(affected))
	for a := range affected {
		anchors = append(anchors, a)
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i] < anchors[j] })

	ai := 0
	emitAffectedBelow := func(limit tin.VertexID, inclusive bool) {
		for ai < len(anchors) && (anchors[ai] < limit || (inclusive && anchors[ai] == limit)) {
			out.Rows = append(out.Rows, anchorRows(t, n, anchors[ai])...)
			ai++
		}
	}
	t.Anchors(func(a tin.VertexID, rows []Row) {
		emitAffectedBelow(a, false)
		if affected[a] {
			if ai < len(anchors) && anchors[ai] == a {
				ai++
			}
			out.Rows = append(out.Rows, anchorRows(t, n, a)...)
			return
		}
		out.Rows = append(out.Rows, rows...)
	})
	emitAffectedBelow(tin.VertexID(n.NumVertices()), true)
	out.buildIndex()
	return out
}

// anchorRows recomputes one anchor's row group on the current network
// state, in the same deterministic order Precompute uses.
func anchorRows(t *Table, n *tin.Network, a tin.VertexID) []Row {
	var rows []Row
	if t.Cyclic {
		for _, e1 := range n.OutEdges(a) {
			b := n.Edge(e1).To
			if b == a {
				continue
			}
			if t.Hops == 2 {
				if e2, ok := n.HasEdge(b, a); ok {
					flow, arr := pathArrivals(n, []tin.EdgeID{e1, e2})
					rows = append(rows, Row{
						Verts: []tin.VertexID{a, b},
						Edges: []tin.EdgeID{e1, e2},
						Flow:  flow, Arr: arr,
					})
				}
				continue
			}
			for _, e2 := range n.OutEdges(b) {
				c := n.Edge(e2).To
				if c == a || c == b {
					continue
				}
				if e3, ok := n.HasEdge(c, a); ok {
					flow, arr := pathArrivals(n, []tin.EdgeID{e1, e2, e3})
					rows = append(rows, Row{
						Verts: []tin.VertexID{a, b, c},
						Edges: []tin.EdgeID{e1, e2, e3},
						Flow:  flow, Arr: arr,
					})
				}
			}
		}
		return rows
	}
	for _, e1 := range n.OutEdges(a) {
		b := n.Edge(e1).To
		for _, e2 := range n.OutEdges(b) {
			c := n.Edge(e2).To
			if c == a || c == b {
				continue
			}
			flow, arr := pathArrivals(n, []tin.EdgeID{e1, e2})
			rows = append(rows, Row{
				Verts: []tin.VertexID{a, b, c},
				Edges: []tin.EdgeID{e1, e2},
				Flow:  flow, Arr: arr,
			})
		}
	}
	return rows
}

// buildIndex derives a table's anchor index from its rows, sized to the
// highest anchor present — the one piece of the table layout the oracle
// needs that the row-level updater maintains incrementally instead.
func (t *Table) buildIndex() {
	nv := 0
	if len(t.Rows) > 0 {
		nv = int(t.Rows[len(t.Rows)-1].Anchor()) + 1
	}
	t.start = make([]int32, nv+1)
	r := 0
	for a := 0; a <= nv; a++ {
		for r < len(t.Rows) && int(t.Rows[r].Anchor()) < a {
			r++
		}
		t.start[a] = int32(r)
	}
}
