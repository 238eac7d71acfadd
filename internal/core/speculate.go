package core

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements speculative batched candidate evaluation, the batch
// analogue of parallel SPSA / parallel knowledge-gradient batch proposals:
// instead of evaluating the simplex's candidate moves one round-trip at a
// time (reflection, then maybe expansion, then maybe contraction, then maybe
// the shrink vertices), a speculative step submits every candidate as ONE
// sampling batch before the decision, selects the accepted move from the
// landed results, and discards the rest. The candidateSet below is
// the shared bookkeeping: the sequential path uses it in lazy mode (points
// created on demand, bitwise identical to the pre-speculation driver), the
// speculative path prefetches.
//
// Determinism: candidate points are created in a fixed order (reflection,
// expansion, contraction, shrink vertices), so their noise-stream indices —
// and therefore every value they ever observe — are a pure function of the
// decision history, never of worker timing. Discarding a candidate closes
// its point; the stream indices it consumed stay consumed, which is exactly
// what the space's NextStream snapshot counter records for resume.

// checkSpeculative gates Config.Speculative on the backend's batch capacity:
// the candidate prefetch keeps up to d+4 (with shrink, 2d+4) points live at
// once, which deadlocks backends that pin every live point to a bounded
// worker rank (mw.Space blocks in NewPoint once its d+3 ranks are taken).
// *sim.LocalSpace, whose points are unbounded, is the backend built for such
// wide batches; anything else gets a descriptive error instead of a hang.
func checkSpeculative(space sim.Space, cfg Config) error {
	if !cfg.Speculative {
		return nil
	}
	if _, ok := space.(*sim.LocalSpace); !ok {
		return fmt.Errorf("core: Config.Speculative requires a *sim.LocalSpace (unbounded live points); %T pins points to a bounded worker pool and would deadlock", space)
	}
	return nil
}

// candidateSet owns the candidate moves of one simplex step: the reflection,
// expansion and contraction trial points plus (speculatively) the shrink
// vertices of a collapse. Exactly one of the candidates ends up claimed as a
// vertex, which empties its slot; discard closes what the slots still hold.
// The optimizer owns one set and resets it every step.
type candidateSet struct {
	o          *optimizer
	imax, imin int

	ref, exp, con sim.Point
	shrink        []sim.Point // reused across steps; empty unless prefetched
	speculated    bool
}

// newCandidates resets the optimizer's candidate set for a step whose
// centroid is in o.cent. In speculative mode every candidate is created
// (fixed order: reflection, expansion, contraction, then shrink vertices
// when a collapse is plausible) and sampled as one batch, which dispatches
// in list order, so the candidates most likely to be consumed start first;
// otherwise the set starts empty and candidates are created on demand,
// reproducing the sequential driver exactly.
func (o *optimizer) newCandidates(imax, imin int) (*candidateSet, error) {
	cs := &o.cs
	*cs = candidateSet{o: o, imax: imax, imin: imin, shrink: cs.shrink[:0]}
	if !o.cfg.Speculative {
		return cs, nil
	}
	xmax, x := o.verts[imax].X(), o.xbuf
	cs.ref = o.space.NewPoint(reflectPoint(x, o.cent, xmax))
	cs.exp = o.space.NewPoint(expandPoint(x, x, o.cent))
	cs.con = o.space.NewPoint(contractPoint(x, xmax, o.cent))
	if o.shrinkPlausible() {
		xmin := o.verts[imin].X()
		for i, v := range o.verts {
			if i == imin {
				continue
			}
			cs.shrink = append(cs.shrink, o.space.NewPoint(affine(x, v.X(), xmin, 0.5)))
		}
	}
	cs.speculated = true
	cs.refresh()
	if err := o.sampleFresh(o.trials); err != nil {
		// The aborted batch's candidates can never be consumed — the ones a
		// worker had already sampled as much as the ones the abort kept from
		// dispatch. Route them through the normal discard so each is counted
		// in the waste accounting exactly once, instead of bypassing it with
		// bare Closes.
		cs.discard()
		return nil, err
	}
	return cs, nil
}

// shrinkPlausible reports whether the speculative batch should include the
// shrink vertices: collapses cluster in the contraction phase of the search,
// so they are prefetched only while the simplex is contracting.
func (o *optimizer) shrinkPlausible() bool {
	return o.lastMove == MoveContract || o.lastMove == MoveCollapse
}

// reflection returns the reflection candidate, creating and sampling it now
// if it was not prefetched.
func (cs *candidateSet) reflection() (sim.Point, error) {
	if cs.ref == nil {
		o := cs.o
		p, err := o.newSampled(reflectPoint(o.xbuf, o.cent, o.verts[cs.imax].X()))
		if err != nil {
			return nil, err
		}
		cs.ref = p
		cs.refresh()
	}
	return cs.ref, nil
}

// expansion returns the expansion candidate, creating it from the actual
// reflection position if it was not prefetched (the prefetch computes the
// same coordinates from the predicted reflection, bit for bit).
func (cs *candidateSet) expansion() (sim.Point, error) {
	if cs.exp == nil {
		o := cs.o
		p, err := o.newSampled(expandPoint(o.xbuf, cs.ref.X(), o.cent))
		if err != nil {
			return nil, err
		}
		cs.exp = p
		cs.refresh()
	}
	return cs.exp, nil
}

// contraction returns the contraction candidate, creating it now if it was
// not prefetched.
func (cs *candidateSet) contraction() (sim.Point, error) {
	if cs.con == nil {
		o := cs.o
		p, err := o.newSampled(contractPoint(o.xbuf, o.verts[cs.imax].X(), o.cent))
		if err != nil {
			return nil, err
		}
		cs.con = p
		cs.refresh()
	}
	return cs.con, nil
}

// claim marks a candidate as consumed (it is being installed as a vertex) by
// emptying its slot, which excludes it from discard.
func (cs *candidateSet) claim(p sim.Point) sim.Point {
	switch p {
	case cs.ref:
		cs.ref = nil
	case cs.exp:
		cs.exp = nil
	case cs.con:
		cs.con = nil
	}
	return p
}

// dropExpansion closes the expansion candidate early: the step has committed
// to the contraction ladder, so the expansion is certainly unneeded and must
// stop accruing sampling.
func (cs *candidateSet) dropExpansion() {
	if cs.exp != nil {
		cs.discardPoint(cs.exp)
		cs.exp = nil
		cs.refresh()
	}
}

// dropContraction closes the contraction candidate and any speculative
// shrink vertices early: the step has committed to the expansion ladder, so
// neither can be consumed.
func (cs *candidateSet) dropContraction() {
	if cs.con == nil && len(cs.shrink) == 0 {
		return
	}
	if cs.con != nil {
		cs.discardPoint(cs.con)
		cs.con = nil
	}
	for _, p := range cs.shrink {
		cs.discardPoint(p)
	}
	cs.shrink = cs.shrink[:0]
	cs.refresh()
}

// collapse performs the step's collapse move: with prefetched shrink
// vertices they are installed directly (their sampling landed in the
// candidate batch), otherwise the sequential collapse creates and samples
// them now. The unconsumed trial candidates are released FIRST: on backends
// where a live point holds a worker assignment (mw.Space), the collapse's
// fresh vertices need those slots — closing after would deadlock NewPoint.
func (cs *candidateSet) collapse() error {
	cs.discardMoves()
	cs.refresh()
	if len(cs.shrink) > 0 {
		cs.o.collapseWith(cs.imin, cs.shrink)
		cs.shrink = cs.shrink[:0]
		return nil
	}
	return cs.o.collapse(cs.imin)
}

// refresh refills o.trials with the candidate points still under
// consideration — the step's trial set for resampling, in the fixed
// candidate order.
func (cs *candidateSet) refresh() {
	trials := cs.o.trials[:0]
	for _, p := range [...]sim.Point{cs.ref, cs.exp, cs.con} {
		if p != nil {
			trials = append(trials, p)
		}
	}
	cs.o.trials = append(trials, cs.shrink...)
}

// discardPoint closes one unconsumed candidate, accounting it as speculative
// waste when it was prefetched.
func (cs *candidateSet) discardPoint(p sim.Point) {
	p.Close()
	if cs.speculated {
		cs.o.res.SpeculativeWaste++
		mSpecWaste.Inc()
	}
}

// discardMoves closes the unclaimed reflection, expansion and contraction
// and empties their slots.
func (cs *candidateSet) discardMoves() {
	for _, p := range [...]sim.Point{cs.ref, cs.exp, cs.con} {
		if p != nil {
			cs.discardPoint(p)
		}
	}
	cs.ref, cs.exp, cs.con = nil, nil, nil
}

// discard closes every live unclaimed candidate and clears the trial set.
// It is deferred by the step functions, so error paths and decision paths
// release candidates uniformly.
func (cs *candidateSet) discard() {
	cs.discardMoves()
	for _, p := range cs.shrink {
		cs.discardPoint(p)
	}
	cs.shrink = cs.shrink[:0]
	cs.o.trials = cs.o.trials[:0]
}
