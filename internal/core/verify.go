package core

import "errors"

// VerifyPlan is the generator's translation-validation pass: an
// independent checker that re-derives the invariants a correct plan
// must satisfy from the pattern alone and confirms the plan meets
// them. Synthesize runs it after every BuildPlan, so a planner bug
// surfaces as a loud synthesis error instead of a silently weaker
// hash function. The invariants:
//
//  1. loads stay within the key (fixed plans: [0, KeyLen−8]; short
//     plans: partial loads within MinLen);
//  2. every variable byte of the guaranteed key region is covered by
//     some load (no entropy silently dropped);
//  3. Pext masks select only variable bits, never select the same
//     key bit twice across overlapping loads, and together select
//     every variable bit (fixed plans);
//  4. when the extractions fit in 64 bits, the rotation windows are
//     pairwise disjoint — the bijectivity precondition;
//  5. HashBits equals the mask bit count;
//  6. variable plans carry a well-formed skip table: positive
//     strides, loads inside [0, MinLen−8].
//
// The checks themselves live in the plan certifier (Certify), whose
// abstract interpretation subsumes them: VerifyPlan is the thin
// pass/fail view, returning the certificate's first structural
// finding as an error.
func VerifyPlan(p *Plan) error {
	if p.Fallback {
		return nil // nothing synthesized
	}
	return refuted(Certify(p))
}

// refuted is VerifyPlan's verdict read off a certificate the caller
// already holds: its first finding, as an error. A fallback plan's
// certificate has no findings (a seed's post-mix is rank-certified
// when it is derived), so the verdict agrees with VerifyPlan's early
// return.
func refuted(c *Certificate) error {
	if len(c.Findings) > 0 {
		return errors.New(c.Findings[0])
	}
	return nil
}
