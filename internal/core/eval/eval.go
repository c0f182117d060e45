package eval

import (
	"fmt"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/predicate"
	"wlq/internal/resilience"
)

// Strategy selects the operator join implementation.
type Strategy int

// Evaluation strategies.
const (
	// StrategyNaive runs the published Algorithm 1: nested-loop joins with
	// the Lemma 1 complexity.
	StrategyNaive Strategy = iota + 1
	// StrategyMerge exploits the sorted incident-set order with binary
	// search and range pre-checks; results are identical to StrategyNaive.
	StrategyMerge
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyMerge:
		return "merge"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures an Evaluator.
type Options struct {
	// Strategy selects the join implementation; the zero value means
	// StrategyMerge (the better default; benchmarks opt into naive).
	Strategy Strategy
	// Limit, when positive, caps (best effort) the number of incidents each
	// operator produces per workflow instance. It is a safety valve against
	// the O(m^k) worst case of Theorem 1, not an exact top-k.
	Limit int
	// Meter, when non-nil, attributes measured comparison work and the
	// Lemma 1 predicted bounds to the nodes of the evaluated plan. It must
	// be built (NewMeter) over the same pattern tree passed to Eval — nodes
	// are matched by identity. Safe under EvalParallel: counters are atomic.
	Meter *Meter
	// Budget, when non-zero, caps the evaluation's comparison work,
	// produced incidents, wall time and result size; a tripped limit aborts
	// with an error wrapping resilience.ErrBudgetExceeded. Enforced on the
	// context-aware paths (EvalParallelCtx and the serial path beneath it);
	// the plain Eval/Exists/EvalInstance entry points have no error channel
	// and ignore it. See internal/core/eval/budget.go for check cadence.
	Budget resilience.Budget
}

// Evaluator computes incident sets incL(p) over an indexed log, per
// Algorithm 2: atomic patterns are answered from the index, composite
// patterns by post-order traversal of the pattern tree, instance by instance
// (incidents never span workflow instances).
//
// The Index must not change while an Evaluator reads it — the same contract
// EvalParallel, the result cache and the shard executor rely on.
type Evaluator struct {
	ix   *Index
	opts Options
}

// New creates an Evaluator over an indexed log.
func New(ix *Index, opts Options) *Evaluator {
	if opts.Strategy == 0 {
		opts.Strategy = StrategyMerge
	}
	return &Evaluator{ix: ix, opts: opts}
}

// Index returns the evaluator's index.
func (e *Evaluator) Index() *Index { return e.ix }

// Eval computes incL(p): every incident of the pattern in the log.
func (e *Evaluator) Eval(p pattern.Node) *incident.Set {
	set := &incident.Set{}
	for _, wid := range e.ix.WIDs() {
		set.Add(e.evalWID(p, wid, nil)...)
	}
	set.Normalize()
	return set
}

// EvalInstance computes the incidents of p within a single workflow
// instance.
func (e *Evaluator) EvalInstance(p pattern.Node, wid uint64) *incident.Set {
	return incident.NewSet(e.evalWID(p, wid, nil)...)
}

// Exists reports whether incL(p) is non-empty, short-circuiting across
// workflow instances: evaluation stops at the first instance containing an
// incident. This answers the paper's yes/no queries ("are there any
// students who ...") without enumerating every match.
func (e *Evaluator) Exists(p pattern.Node) bool {
	for _, wid := range e.ix.WIDs() {
		if len(e.evalWID(p, wid, nil)) > 0 {
			return true
		}
	}
	return false
}

// evalWID is the post-order incident-tree evaluation of Algorithm 2,
// restricted to one workflow instance. The returned slice is normalized.
//
// Under StrategyMerge, structurally repeated sub-patterns — common after
// Theorem 5 rewrites, or in queries like (A -> B) | (A -> C) where the atom
// A recurs — are evaluated once per instance via a memo keyed on the
// pattern's printed form (printing is injective on the AST; see the parser
// round-trip tests). StrategyNaive stays verbatim Algorithm 1: no caching,
// so the Lemma 1 benchmarks measure the published join work.
func (e *Evaluator) evalWID(p pattern.Node, wid uint64, bs *budgetState) []incident.Incident {
	if e.opts.Strategy == StrategyNaive {
		return e.evalNode(p, wid, nil, bs)
	}
	return e.evalNode(p, wid, make(map[string][]incident.Incident), bs)
}

func (e *Evaluator) evalNode(p pattern.Node, wid uint64, memo map[string][]incident.Incident, bs *budgetState) []incident.Incident {
	var memoKey string
	if memo != nil {
		memoKey = p.String()
		if cached, ok := memo[memoKey]; ok {
			if nm := e.opts.Meter.node(p); nm != nil {
				nm.recordMemoHit()
			}
			return cached
		}
	}
	var out []incident.Incident
	switch p := p.(type) {
	case *pattern.Atom:
		out = e.evalAtom(p, wid)
	case *pattern.Binary:
		left := e.evalNode(p.Left, wid, memo, bs)
		right := e.evalNode(p.Right, wid, memo, bs)
		nm := e.opts.Meter.node(p)
		if nm != nil || bs != nil {
			cnt := opCount{bs: bs}
			out = e.applyOp(p.Op, left, right, &cnt)
			if nm != nil {
				nm.recordOp(len(left), len(right), cnt.comparisons, len(out))
			}
			// Budget checks come after the meter update so an abort's
			// partial cost table includes every completed operator.
			cnt.flushBudget()
			bs.addOutputs(len(out))
		} else {
			out = e.applyOp(p.Op, left, right, nil)
		}
	default:
		panic(fmt.Sprintf("eval: unknown pattern node %T", p))
	}
	if memo != nil {
		memo[memoKey] = out
	}
	return out
}

// applyOp dispatches OPERATOR-EVAL to the configured join family. cnt, when
// non-nil, tallies the join's record-level comparison work.
func (e *Evaluator) applyOp(op pattern.Op, left, right []incident.Incident, cnt *opCount) []incident.Incident {
	// Empty inputs: only choice can still produce incidents.
	if op != pattern.OpChoice && (len(left) == 0 || len(right) == 0) {
		return nil
	}
	naive := e.opts.Strategy == StrategyNaive
	switch op {
	case pattern.OpConsecutive:
		if naive {
			return naiveConsecutive(left, right, e.opts.Limit, cnt)
		}
		return mergeConsecutive(left, right, e.opts.Limit, cnt)
	case pattern.OpSequential:
		if naive {
			return naiveSequential(left, right, e.opts.Limit, cnt)
		}
		return mergeSequential(left, right, e.opts.Limit, cnt)
	case pattern.OpChoice:
		if naive {
			return naiveChoice(left, right, e.opts.Limit, cnt)
		}
		return mergeChoice(left, right, e.opts.Limit, cnt)
	case pattern.OpParallel:
		if naive {
			return naiveParallel(left, right, e.opts.Limit, cnt)
		}
		return mergeParallel(left, right, e.opts.Limit, cnt)
	default:
		panic(fmt.Sprintf("eval: unknown operator %v", op))
	}
}

// evalAtom answers an atomic pattern from the index: for a positive
// pattern the is-lsn list of the activity; for a negated pattern the
// complement within the instance (valid logs have dense is-lsn 1..n, so the
// complement is computed by a linear merge, not a scan of record contents).
// Guards, when present, filter the matching records (extension).
func (e *Evaluator) evalAtom(a *pattern.Atom, wid uint64) []incident.Incident {
	var seqs []uint64
	if !a.Negated {
		seqs = e.ix.ActivitySeqs(wid, a.Activity)
	} else {
		n := uint64(e.ix.InstanceLen(wid))
		excluded := e.ix.ActivitySeqs(wid, a.Activity)
		seqs = make([]uint64, 0, int(n)-len(excluded))
		j := 0
		for s := uint64(1); s <= n; s++ {
			if j < len(excluded) && excluded[j] == s {
				j++
				continue
			}
			seqs = append(seqs, s)
		}
	}
	out := make([]incident.Incident, 0, len(seqs))
	for _, s := range seqs {
		if len(a.Guards) > 0 {
			rec, ok := e.ix.Record(wid, s)
			if !ok || !predicate.MatchAll(a.Guards, rec) {
				continue
			}
		}
		out = append(out, incident.Singleton(wid, s))
		if limited(out, e.opts.Limit) {
			break
		}
	}
	if nm := e.opts.Meter.node(a); nm != nil {
		nm.recordAtom(len(seqs), len(out))
	}
	return out
}

// EvalSet computes incL(p) for a pattern over a freshly indexed log; a
// convenience for one-shot queries.
func EvalSet(ix *Index, p pattern.Node) *incident.Set {
	return New(ix, Options{}).Eval(p)
}
