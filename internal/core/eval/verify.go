package eval

import (
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/predicate"
)

// Verify reports whether o is an incident of p in the indexed log, checking
// Definition 4 directly: it searches for a decomposition of o's records
// into sub-incidents satisfying the operator conditions. It is independent
// of the evaluation algorithms (no incident sets are computed), which makes
// it a soundness oracle for them in tests; its worst case is exponential in
// o's size, so it is meant for verification, not evaluation.
func (e *Evaluator) Verify(p pattern.Node, o incident.Incident) bool {
	return e.verify(p, o.WID(), o.Seqs())
}

// possibleSizes returns the set of record counts an incident of p can have.
// Atoms contribute 1; ⊙, ≺ and ⊕ sum their operands; ⊗ takes the union of
// its operands' size sets (an incident of a choice is an incident of either
// side, so sizes need not agree).
func possibleSizes(p pattern.Node) map[int]struct{} {
	switch p := p.(type) {
	case *pattern.Atom:
		return map[int]struct{}{1: {}}
	case *pattern.Binary:
		left := possibleSizes(p.Left)
		right := possibleSizes(p.Right)
		out := make(map[int]struct{})
		if p.Op == pattern.OpChoice {
			for s := range left {
				out[s] = struct{}{}
			}
			for s := range right {
				out[s] = struct{}{}
			}
			return out
		}
		for a := range left {
			for b := range right {
				out[a+b] = struct{}{}
			}
		}
		return out
	default:
		return nil
	}
}

// verify checks that the record set seqs (sorted is-lsn values of instance
// wid) is an incident of p.
func (e *Evaluator) verify(p pattern.Node, wid uint64, seqs []uint64) bool {
	switch p := p.(type) {
	case *pattern.Atom:
		if len(seqs) != 1 {
			return false
		}
		rec, ok := e.ix.Record(wid, seqs[0])
		if !ok {
			return false
		}
		match := rec.Activity == p.Activity
		if p.Negated {
			match = !match
		}
		return match && predicate.MatchAll(p.Guards, rec)
	case *pattern.Binary:
		switch p.Op {
		case pattern.OpChoice:
			return e.verify(p.Left, wid, seqs) || e.verify(p.Right, wid, seqs)
		case pattern.OpConsecutive, pattern.OpSequential:
			// The ordering constraint (all of o1 before all of o2) forces
			// the split to be prefix/suffix of the sorted seqs; try every
			// cut point with a compatible gap.
			for cut := 1; cut < len(seqs); cut++ {
				left, right := seqs[:cut], seqs[cut:]
				gapOK := left[cut-1] < right[0]
				if p.Op == pattern.OpConsecutive {
					gapOK = left[cut-1]+1 == right[0]
				}
				if gapOK && e.verify(p.Left, wid, left) && e.verify(p.Right, wid, right) {
					return true
				}
			}
			return false
		case pattern.OpParallel:
			// Any subset split can work; enumerate subsets for the left
			// operand, pruned to the sizes its incidents can actually have.
			rightSizes := possibleSizes(p.Right)
			for need := range possibleSizes(p.Left) {
				if need < 1 || need >= len(seqs) {
					continue
				}
				if _, ok := rightSizes[len(seqs)-need]; !ok {
					continue
				}
				if e.verifyParallelSplit(p, wid, seqs, need, nil, 0) {
					return true
				}
			}
			return false
		default:
			return false
		}
	default:
		return false
	}
}

// verifyParallelSplit enumerates size-need subsets of seqs (starting at
// index from, with the prefix already chosen), checking each split of seqs
// into (chosen, rest) against (p.Left, p.Right).
func (e *Evaluator) verifyParallelSplit(p *pattern.Binary, wid uint64, seqs []uint64, need int, chosen []uint64, from int) bool {
	if len(chosen) == need {
		rest := make([]uint64, 0, len(seqs)-need)
		ci := 0
		for _, s := range seqs {
			if ci < len(chosen) && chosen[ci] == s {
				ci++
				continue
			}
			rest = append(rest, s)
		}
		return e.verify(p.Left, wid, chosen) && e.verify(p.Right, wid, rest)
	}
	for i := from; i <= len(seqs)-(need-len(chosen)); i++ {
		if e.verifyParallelSplit(p, wid, seqs, need, append(chosen, seqs[i]), i+1) {
			return true
		}
	}
	return false
}
