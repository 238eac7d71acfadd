package core

import (
	"math"

	"repro/internal/sim"
)

// waitPolicy selects the pre-decision sampling rule used by the NM-skeleton
// algorithms.
type waitPolicy int

const (
	waitNone     waitPolicy = iota // DET: decide on current estimates
	waitMaxNoise                   // MN: eq 2.3
	waitAnderson                   // Anderson criterion: eq 2.4
)

// decisionClock budgets the sampling effort of one simplex decision: it
// clamps each increment to the remaining per-decision and global budgets and
// enforces the round cap.
type decisionClock struct {
	o      *optimizer
	start  float64
	budget float64 // <= 0 means unlimited
	rounds int
}

func (o *optimizer) newDecision() decisionClock {
	return decisionClock{o: o, start: o.clock.Now(), budget: o.cfg.DecisionBudget}
}

// allow reports whether one more round of sampling may proceed and returns
// the clamped increment. A false return with forced=true means the decision
// must be made on the current means.
func (d *decisionClock) allow(dt float64) (step float64, ok, forced bool) {
	if d.o.overBudget() {
		return 0, false, false
	}
	if d.rounds >= d.o.cfg.MaxWaitRounds {
		return 0, false, true
	}
	step = d.o.clampDt(dt)
	if step <= 0 {
		return 0, false, false
	}
	if d.budget > 0 {
		rem := d.budget - (d.o.clock.Now() - d.start)
		if rem <= 0 {
			return 0, false, true
		}
		if step > rem {
			step = rem
		}
	}
	d.rounds++
	return step, true, false
}

// waitLoop samples all vertices until the policy's noise condition clears,
// the decision budget or round cap forces a decision, the walltime budget
// runs out, or the run context is canceled.
func (o *optimizer) waitLoop(policy waitPolicy) error {
	if policy == waitNone {
		return nil
	}
	dt := o.cfg.Resample
	dec := o.newDecision()
	for o.waitConditionHolds(policy) {
		step, ok, forced := dec.allow(dt)
		if !ok {
			if forced {
				o.res.ForcedDecisions++
			}
			return nil
		}
		if err := o.sampleBatch(o.verts, step); err != nil {
			return err
		}
		dt *= o.cfg.ResampleGrowth
		o.res.WaitRounds++
	}
	return nil
}

// waitConditionHolds reports whether sampling must continue before a decision.
func (o *optimizer) waitConditionHolds(policy waitPolicy) bool {
	switch policy {
	case waitMaxNoise:
		// Eq 2.3: wait while max_i sigma_i^2 > k * Var_internal, with
		// Var_internal the variance of the vertices' *underlying* function
		// values ("the noise at each of the vertices is small compared to
		// the internal variance of the vertices themselves"). The observed
		// scatter of the noisy estimates contains the noise itself, so the
		// underlying variance is estimated by subtracting the average noise
		// variance — otherwise the gate would self-satisfy under uniform
		// noise and k would change the outcome rather than only the speed,
		// contradicting section 3.2.
		maxVar := 0.0
		avgVar := 0.0
		mean := 0.0
		ests := o.estimates()
		n := float64(len(ests))
		for _, est := range ests {
			s2 := est.Sigma * est.Sigma
			if s2 > maxVar {
				maxVar = s2
			}
			avgVar += s2 / n
			mean += est.Mean / n
		}
		observed := 0.0
		for _, est := range ests {
			d := est.Mean - mean
			observed += d * d / n
		}
		internal := observed - avgVar
		if internal < 0 {
			internal = 0
		}
		return maxVar > o.cfg.MNK*internal
	case waitAnderson:
		// Eq 2.4: every vertex must satisfy sigma_i^2 < k1 * 2^(-l(1+k2)).
		cutoff := o.cfg.K1 * math.Exp2(-float64(o.level)*(1+o.cfg.K2))
		for _, v := range o.verts {
			s := v.Estimate().Sigma
			if s*s >= cutoff {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// stepNM performs one iteration of the Nelder-Mead skeleton shared by
// Algorithms 1 and 2 (and the AndersonNM variant): reflection, then
// expansion / reflection-accept / contraction / collapse, deciding on the
// plain running means. The wait policy runs first. The candidates are
// evaluated sequentially on demand, or — under Config.Speculative — as one
// prefetched batch before the decision.
func (o *optimizer) stepNM(policy waitPolicy) error {
	if err := o.waitLoop(policy); err != nil {
		return err
	}

	imax, _, imin := o.order()
	o.centroid(imax)
	gmax := o.est[imax].Mean
	gmin := o.est[imin].Mean

	cs, err := o.newCandidates(imax, imin)
	if err != nil {
		return err
	}
	defer cs.discard()

	ref, err := cs.reflection()
	if err != nil {
		return err
	}
	gref := ref.Estimate().Mean

	switch {
	case gref < gmin:
		exp, err := cs.expansion()
		if err != nil {
			return err
		}
		if exp.Estimate().Mean < gref {
			o.replace(imax, cs.claim(exp))
			o.level--
			o.lastMove = MoveExpand
			o.res.Moves.Expansions++
		} else {
			o.replace(imax, cs.claim(ref))
			o.lastMove = MoveReflect
			o.res.Moves.Reflections++
		}
	case gref < gmax:
		// The paper's Algorithm 1 accepts any reflection that improves on
		// the worst vertex (line 12), unlike the textbook smax band.
		o.replace(imax, cs.claim(ref))
		o.lastMove = MoveReflect
		o.res.Moves.Reflections++
	default:
		con, err := cs.contraction()
		if err != nil {
			return err
		}
		if con.Estimate().Mean < gmax {
			o.replace(imax, cs.claim(con))
			o.level++
			o.lastMove = MoveContract
			o.res.Moves.Contractions++
		} else {
			if err := cs.collapse(); err != nil {
				return err
			}
			o.lastMove = MoveCollapse
		}
	}
	return nil
}

// confidently reports the outcome of the PC comparison "a is below b" for
// condition cond: mean(a) + K*sigma_a < mean(b) - K*sigma_b when the
// condition uses error bars, else mean(a) < mean(b). The second return value
// distinguishes a definite verdict from the comparison itself; callers pair
// two complementary conditions and resample while both are false.
func (o *optimizer) confidently(a, b sim.Point, cond int) bool {
	ea, eb := a.Estimate(), b.Estimate()
	if o.cfg.ErrorBars.Has(cond) {
		return ea.Mean+o.cfg.K*ea.Sigma < eb.Mean-o.cfg.K*eb.Sigma
	}
	return ea.Mean < eb.Mean
}

// confidentlyGEq reports "a is above-or-equal b" at confidence for condition
// cond: mean(a) - K*sigma_a >= mean(b) + K*sigma_b with error bars, else
// mean(a) >= mean(b).
func (o *optimizer) confidentlyGEq(a, b sim.Point, cond int) bool {
	ea, eb := a.Estimate(), b.Estimate()
	if o.cfg.ErrorBars.Has(cond) {
		return ea.Mean-o.cfg.K*ea.Sigma >= eb.Mean+o.cfg.K*eb.Sigma
	}
	return ea.Mean >= eb.Mean
}

// resample gives an indeterminate comparison one more round of concurrent
// sampling. Every active point — the d+1 vertices plus live trial points —
// accrues: in the paper's deployment a worker is dedicated to each active
// vertex, so while a comparison is pending all of them keep accumulating
// precision at no extra wall-clock cost ("objective function evaluations
// must be kept active on each of the d+1 vertices until it is certain that
// they are no longer needed"). Returns false when the budget or the round
// cap is exhausted and the decision must be forced, or when the batch
// errored (cancellation) and the iteration must be abandoned.
func (o *optimizer) resample(dt *float64, dec *decisionClock) (bool, error) {
	step, ok, forced := dec.allow(*dt)
	if !ok {
		if forced {
			o.res.ForcedDecisions++
		}
		return false, nil
	}
	// No backend retains the batch slice past the call, so every round
	// refills the same scratch.
	o.batch = append(append(o.batch[:0], o.verts...), o.trials...)
	if err := o.sampleBatch(o.batch, step); err != nil {
		return false, err
	}
	*dt *= o.cfg.ResampleGrowth
	o.res.ResampleRounds++
	return true, nil
}

// stepPC performs one iteration of the point-to-point comparison algorithm
// (Algorithm 3), optionally preceded by the max-noise wait loop (Algorithm 4,
// PC+MN). The seven numbered conditions follow the paper's pseudocode; see
// the package comment for the c5 symmetry note. Under Config.Speculative the
// expansion and contraction candidates are prefetched in the reflection's
// batch and accrue sampling with the other active points until the ladder
// commits to a branch and drops them.
func (o *optimizer) stepPC(withMaxNoise bool) error {
	if withMaxNoise {
		if err := o.waitLoop(waitMaxNoise); err != nil {
			return err
		}
	}

	imax, ismax, imin := o.order()
	o.centroid(imax)
	max := o.verts[imax]
	smax := o.verts[ismax]
	min := o.verts[imin]

	cs, err := o.newCandidates(imax, imin)
	if err != nil {
		return err
	}
	defer cs.discard()

	ref, err := cs.reflection()
	if err != nil {
		return err
	}

	dt := o.cfg.Resample
	dec := o.newDecision()
	for {
		switch {
		case o.confidently(ref, smax, 1): // condition 1: reflection viable
			if o.confidentlyGEq(ref, min, 2) {
				// Condition 2: ref is confidently above the best vertex;
				// plain reflection, no expansion attempt.
				o.replace(imax, cs.claim(ref))
				o.lastMove = MoveReflect
				o.res.Moves.Reflections++
				return nil
			}
			return o.pcExpansion(cs, ref)
		case o.confidentlyGEq(ref, smax, 5): // condition 5: reflection fails
			return o.pcContraction(cs, ref, max)
		default:
			// Indeterminate band between c1 and c5: resample "until
			// condition 1 or 5 is satisfied" (all active points accrue).
			ok, err := o.resample(&dt, &dec)
			if err != nil {
				return err
			}
			if !ok {
				// Forced decision on means.
				if ref.Estimate().Mean < smax.Estimate().Mean {
					if ref.Estimate().Mean >= min.Estimate().Mean {
						o.replace(imax, cs.claim(ref))
						o.lastMove = MoveReflect
						o.res.Moves.Reflections++
						return nil
					}
					return o.pcExpansion(cs, ref)
				}
				return o.pcContraction(cs, ref, max)
			}
		}
	}
}

// pcExpansion handles conditions 3 and 4: the reflected point may be a new
// best, so the expansion point is evaluated and compared against it. The
// contraction candidate (and any speculative shrink vertices) can no longer
// be consumed and are dropped.
func (o *optimizer) pcExpansion(cs *candidateSet, ref sim.Point) error {
	exp, err := cs.expansion()
	if err != nil {
		return err
	}
	cs.dropContraction()
	imax := cs.imax
	dt := o.cfg.Resample
	dec := o.newDecision()
	for {
		switch {
		case o.confidently(exp, ref, 3): // condition 3: expansion wins
			o.replace(imax, cs.claim(exp))
			o.level--
			o.lastMove = MoveExpand
			o.res.Moves.Expansions++
			return nil
		case o.confidentlyGEq(exp, ref, 4): // condition 4: keep reflection
			o.replace(imax, cs.claim(ref))
			o.lastMove = MoveReflect
			o.res.Moves.Reflections++
			return nil
		default:
			ok, err := o.resample(&dt, &dec)
			if err != nil {
				return err
			}
			if !ok {
				if exp.Estimate().Mean < ref.Estimate().Mean {
					o.replace(imax, cs.claim(exp))
					o.level--
					o.lastMove = MoveExpand
					o.res.Moves.Expansions++
				} else {
					o.replace(imax, cs.claim(ref))
					o.lastMove = MoveReflect
					o.res.Moves.Reflections++
				}
				return nil
			}
		}
	}
}

// pcContraction handles conditions 6 and 7: reflection failed, so the
// contraction point is evaluated against the worst vertex; if even the
// contraction cannot beat it, the simplex collapses toward the best vertex.
// The expansion candidate can no longer be consumed and is dropped.
func (o *optimizer) pcContraction(cs *candidateSet, ref, max sim.Point) error {
	con, err := cs.contraction()
	if err != nil {
		return err
	}
	cs.dropExpansion()
	imax := cs.imax
	dt := o.cfg.Resample
	dec := o.newDecision()
	for {
		switch {
		case o.confidently(con, max, 6): // condition 6: contraction accepted
			o.replace(imax, cs.claim(con))
			o.level++
			o.lastMove = MoveContract
			o.res.Moves.Contractions++
			return nil
		case o.confidentlyGEq(con, max, 7): // condition 7: collapse
			if err := cs.collapse(); err != nil {
				return err
			}
			o.lastMove = MoveCollapse
			return nil
		default:
			ok, err := o.resample(&dt, &dec)
			if err != nil {
				return err
			}
			if !ok {
				if con.Estimate().Mean < max.Estimate().Mean {
					o.replace(imax, cs.claim(con))
					o.level++
					o.lastMove = MoveContract
					o.res.Moves.Contractions++
				} else {
					if err := cs.collapse(); err != nil {
						return err
					}
					o.lastMove = MoveCollapse
				}
				return nil
			}
		}
	}
}
