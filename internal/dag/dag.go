// Package dag models pipeline dags as defined in Sections 1 and 4 of
// "On-the-Fly Pipeline Parallelism": grids of nodes (i, j) for iteration i
// and stage j, with stage edges down each iteration, optional cross edges
// between adjacent iterations, and optional throttling edges from the last
// node of iteration i to the first node of iteration i+K.
//
// The package computes work T1, span T∞ (with null-node collapsing for
// skipped stages), and parallelism T1/T∞, playing the role of the modified
// Cilkview analyzer the authors used to measure dedup's parallelism of 7.4.
// It also constructs the adversarial dags of Theorems 12 and 13.
package dag

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Node is one pipeline node (i, j): the execution of stage j in
// iteration i.
type Node struct {
	// Stage is the node's stage number j; stages must strictly increase
	// within an iteration and stage 0 must come first.
	Stage int64
	// Weight is the node's execution time w(i,j) in abstract units.
	Weight int64
	// Cross records an incoming cross edge from node (i-1, Stage); if the
	// previous iteration skipped this stage the edge collapses to its last
	// real node before Stage, as the paper specifies for null nodes.
	Cross bool
}

// Pipeline is a pipeline dag: Iters[i] lists the real nodes of
// iteration i in stage order.
type Pipeline struct {
	Iters [][]Node
}

// Validate checks the structural rules of Cilk-P pipelines.
func (p *Pipeline) Validate() error {
	for i, it := range p.Iters {
		if len(it) == 0 {
			return fmt.Errorf("iteration %d has no nodes", i)
		}
		if it[0].Stage != 0 {
			return fmt.Errorf("iteration %d does not begin with stage 0", i)
		}
		if it[0].Cross && i == 0 {
			return errors.New("iteration 0 cannot have cross edges")
		}
		for k := 1; k < len(it); k++ {
			if it[k].Stage <= it[k-1].Stage {
				return fmt.Errorf("iteration %d: stages not strictly increasing at node %d", i, k)
			}
			if it[k].Weight < 0 || it[k-1].Weight < 0 {
				return fmt.Errorf("iteration %d: negative weight", i)
			}
		}
	}
	return nil
}

// Work returns T1, the sum of all node weights.
func (p *Pipeline) Work() int64 {
	var t1 int64
	for _, it := range p.Iters {
		for _, n := range it {
			t1 += n.Weight
		}
	}
	return t1
}

// Span returns T∞ of the unthrottled dag: the weight of the longest path
// through stage and cross edges.
func (p *Pipeline) Span() int64 { return p.span(0) }

// SpanThrottled returns T∞ with throttling edges for window K included,
// i.e. the span PIPER's guarantee is stated against.
func (p *Pipeline) SpanThrottled(k int) int64 {
	if k <= 0 {
		panic("dag: throttling window must be positive")
	}
	return p.span(k)
}

// span computes the longest weighted path; k == 0 means no throttling
// edges. finish[i][x] is the completion time of node x of iteration i.
func (p *Pipeline) span(k int) int64 {
	n := len(p.Iters)
	finish := make([][]int64, n)
	var best int64
	for i := 0; i < n; i++ {
		it := p.Iters[i]
		finish[i] = make([]int64, len(it))
		for x, node := range it {
			var start int64
			if x > 0 {
				start = finish[i][x-1] // stage edge
			}
			if node.Cross && i > 0 {
				// Cross edge from the completion of node (i-1, Stage),
				// collapsing onto the last real node at or before Stage.
				if pi := lastAtOrBefore(p.Iters[i-1], node.Stage); pi >= 0 {
					if f := finish[i-1][pi]; f > start {
						start = f
					}
				}
			}
			if x == 0 && k > 0 && i >= k {
				// Throttling edge from the end of iteration i-K.
				if f := finish[i-k][len(p.Iters[i-k])-1]; f > start {
					start = f
				}
			}
			finish[i][x] = start + node.Weight
			if finish[i][x] > best {
				best = finish[i][x]
			}
		}
	}
	return best
}

// lastAtOrBefore returns the index of the last node with Stage <= s, or -1.
func lastAtOrBefore(iter []Node, s int64) int {
	lo := sort.Search(len(iter), func(k int) bool { return iter[k].Stage > s })
	return lo - 1
}

// Parallelism returns T1/T∞ for the unthrottled dag.
func (p *Pipeline) Parallelism() float64 {
	sp := p.Span()
	if sp == 0 {
		return 0
	}
	return float64(p.Work()) / float64(sp)
}

// ParallelismThrottled returns T1/T∞ with throttling edges for window K.
func (p *Pipeline) ParallelismThrottled(k int) float64 {
	sp := p.SpanThrottled(k)
	if sp == 0 {
		return 0
	}
	return float64(p.Work()) / float64(sp)
}

// PredictTime returns the greedy-scheduler bound max(T1/P, T∞(K)) used to
// extrapolate speedup tables beyond the host's core count.
func (p *Pipeline) PredictTime(workers, k int) float64 {
	t1 := float64(p.Work())
	sp := float64(p.SpanThrottled(k))
	tp := t1 / float64(workers)
	if sp > tp {
		tp = sp
	}
	return tp
}

// PredictSpeedup returns T1 / PredictTime.
func (p *Pipeline) PredictSpeedup(workers, k int) float64 {
	return float64(p.Work()) / p.PredictTime(workers, k)
}

// DOT writes the dag in Graphviz format, one row per stage as in the
// paper's Figure 1 / Figure 3 drawings. Throttling edges for window k are
// drawn dashed when k > 0.
func (p *Pipeline) DOT(w io.Writer, k int) error {
	if _, err := fmt.Fprintln(w, "digraph pipeline {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=TB; node [shape=circle, fontsize=8];")
	name := func(i, x int) string {
		return fmt.Sprintf("n%d_%d", i, p.Iters[i][x].Stage)
	}
	for i, it := range p.Iters {
		for x, nd := range it {
			fmt.Fprintf(w, "  %s [label=\"(%d,%d)\\nw=%d\"];\n", name(i, x), i, nd.Stage, nd.Weight)
			if x > 0 {
				fmt.Fprintf(w, "  %s -> %s;\n", name(i, x-1), name(i, x))
			}
			if nd.Cross && i > 0 {
				if pi := lastAtOrBefore(p.Iters[i-1], nd.Stage); pi >= 0 {
					fmt.Fprintf(w, "  %s -> %s [color=blue];\n", name(i-1, pi), name(i, x))
				}
			}
			if x == 0 && k > 0 && i >= k {
				fmt.Fprintf(w, "  %s -> %s [style=dashed, color=red];\n",
					name(i-k, len(p.Iters[i-k])-1), name(i, 0))
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
