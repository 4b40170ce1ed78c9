// Package datagen generates the synthetic workload families used by the
// benchmark harness to reproduce the shape of the paper's complexity claims
// (section 4, Theorems 4.1-4.3).
//
// Each generator emits surface syntax and parses it, so the workloads also
// exercise the parser. The families, and the role each plays:
//
//   - Calendar(n): a temporal round-robin of n advisees — the section 1
//     example scaled up. Clusters grow linearly in n.
//   - Chain(k): a temporal program with period k (Holds advances k days at
//     a time). Linear; used for the temporal rows of the sweeps.
//   - Subsets(n): the section 2.1 list-membership program over n elements.
//     The states are the subsets of the element set, so clusters grow as
//     2^n: the exponential lower-bound family of Theorem 4.2.
//   - Robot(p): the section 1 situation-calculus planner on a ring of p
//     positions. Clusters grow linearly in p while the successor alphabet
//     grows with p^2 (mixed-symbol elimination).
//   - RandomAutomaton(states, symbols, seed): a random upward-only
//     functional program, used for differential property tests between the
//     exact engine and depth-bounded evaluation.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"funcdb/internal/ast"
	"funcdb/internal/parser"
)

func mustParse(src string) *ast.Program {
	res, err := parser.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("datagen: generated program does not parse: %v\n%s", err, src))
	}
	return res.Program
}

// CalendarSrc returns the source of Calendar(n).
func CalendarSrc(n int) string {
	var b strings.Builder
	b.WriteString("% round-robin advisor calendar\n")
	b.WriteString("Meets(0, s0).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "Next(s%d, s%d).\n", i, (i+1)%n)
	}
	b.WriteString("Meets(T, X), Next(X, Y) -> Meets(T+1, Y).\n")
	return b.String()
}

// Calendar builds a temporal round-robin over n students: period n.
func Calendar(n int) *ast.Program { return mustParse(CalendarSrc(n)) }

// ChainSrc returns the source of Chain(k).
func ChainSrc(k int) string {
	return fmt.Sprintf("Holds(0).\nHolds(T) -> Holds(T+%d).\n", k)
}

// Chain builds a temporal program with period k.
func Chain(k int) *ast.Program { return mustParse(ChainSrc(k)) }

// SubsetsSrc returns the source of Subsets(n).
func SubsetsSrc(n int) string {
	var b strings.Builder
	b.WriteString("% list membership over an n-element universe\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "P(e%d).\n", i)
	}
	b.WriteString("P(X) -> Member(ext(0, X), X).\n")
	b.WriteString("P(Y), Member(S, X) -> Member(ext(S, Y), Y).\n")
	b.WriteString("P(Y), Member(S, X) -> Member(ext(S, Y), X).\n")
	return b.String()
}

// Subsets builds the list program over n elements: ~2^n clusters.
func Subsets(n int) *ast.Program { return mustParse(SubsetsSrc(n)) }

// RobotSrc returns the source of Robot(p).
func RobotSrc(p int) string {
	var b strings.Builder
	b.WriteString("% situation-calculus planner on a ring\n")
	b.WriteString("At(0, p0).\n")
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "Connected(p%d, p%d).\n", i, (i+1)%p)
	}
	if p > 2 {
		// One chord to make the reachability structure less regular.
		fmt.Fprintf(&b, "Connected(p0, p%d).\n", p/2)
	}
	b.WriteString("At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).\n")
	return b.String()
}

// Robot builds the ring planner with p positions.
func Robot(p int) *ast.Program { return mustParse(RobotSrc(p)) }

// RandomAutomatonSrc returns the source of RandomAutomaton.
func RandomAutomatonSrc(states, symbols int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("% random upward-only functional program\n")
	for i := 0; i < states; i++ {
		fmt.Fprintf(&b, "@functional Q%d/1.\n", i)
	}
	b.WriteString("Q0(0).\n")
	// Every state gets at least one outgoing transition per symbol with
	// probability 1/2, and a few binary joins.
	for i := 0; i < states; i++ {
		for s := 0; s < symbols; s++ {
			if rng.Intn(2) == 0 {
				continue
			}
			j := rng.Intn(states)
			fmt.Fprintf(&b, "Q%d(S) -> Q%d(f%d(S)).\n", i, j, s)
		}
	}
	for k := 0; k < states/2; k++ {
		i, j, l := rng.Intn(states), rng.Intn(states), rng.Intn(states)
		fmt.Fprintf(&b, "Q%d(S), Q%d(S) -> Q%d(S).\n", i, j, l)
	}
	return b.String()
}

// RandomAutomaton builds a random upward-only program for differential
// testing: its truncated fixpoint at depth D is exact for terms of depth
// <= D.
func RandomAutomaton(states, symbols int, seed int64) *ast.Program {
	return mustParse(RandomAutomatonSrc(states, symbols, seed))
}

// RandomTemporalSrc returns a random temporal program: facts on a few early
// days and rules advancing by random strides, with occasional downward
// rules (T+k in the body).
func RandomTemporalSrc(preds int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < preds; i++ {
		fmt.Fprintf(&b, "@functional H%d/1.\n", i)
	}
	fmt.Fprintf(&b, "H0(%d).\n", rng.Intn(3))
	for i := 0; i < preds; i++ {
		j := rng.Intn(preds)
		stride := 1 + rng.Intn(3)
		if rng.Intn(4) == 0 {
			// Downward rule: information flows to earlier days.
			fmt.Fprintf(&b, "H%d(T+%d) -> H%d(T).\n", i, stride, j)
		} else {
			fmt.Fprintf(&b, "H%d(T) -> H%d(T+%d).\n", i, j, stride)
		}
	}
	return b.String()
}

// RandomTemporal builds a random temporal program, possibly with downward
// rules.
func RandomTemporal(preds int, seed int64) *ast.Program {
	return mustParse(RandomTemporalSrc(preds, seed))
}

// RandomBidiSrc returns a random program over several unary function
// symbols with rules flowing in both directions (heads at f(S) and at S
// with bodies at f(S)), plus a couple of global side channels. This is the
// stress family for the engine's excursion summarization.
func RandomBidiSrc(preds, syms int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < preds; i++ {
		fmt.Fprintf(&b, "@functional Q%d/1.\n", i)
	}
	b.WriteString("Q0(0).\n")
	for i := 0; i < preds; i++ {
		for s := 0; s < syms; s++ {
			switch rng.Intn(3) {
			case 0: // upward
				fmt.Fprintf(&b, "Q%d(S) -> Q%d(f%d(S)).\n", i, rng.Intn(preds), s)
			case 1: // downward
				fmt.Fprintf(&b, "Q%d(f%d(S)) -> Q%d(S).\n", i, s, rng.Intn(preds))
			case 2: // downward guarded by the parent
				fmt.Fprintf(&b, "Q%d(f%d(S)), Q%d(S) -> Q%d(S).\n",
					i, s, rng.Intn(preds), rng.Intn(preds))
			}
		}
	}
	// A global fact derived wherever two predicates meet, and a rule
	// gated on it.
	fmt.Fprintf(&b, "Q%d(S), Q%d(S) -> Flag.\n", rng.Intn(preds), rng.Intn(preds))
	fmt.Fprintf(&b, "Flag, Q%d(S) -> Q%d(f0(S)).\n", rng.Intn(preds), rng.Intn(preds))
	return b.String()
}

// RandomBidi builds the bidirectional stress program.
func RandomBidi(preds, syms int, seed int64) *ast.Program {
	return mustParse(RandomBidiSrc(preds, syms, seed))
}

// DeepQuery returns a ground yes-no query whose functional term has the
// given depth, over one of the three deep-term families: "cal" (a numeric
// literal on Calendar(n)), "sub" (nested mixed ext(S, e) on Subsets(n)) or
// "rob" (nested mixed move(S, p, q) along ring edges of Robot(n)). Distinct
// seeds give distinct texts of the same size wherever the family has room
// (cal only varies the student constant).
func DeepQuery(family string, n, depth int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	switch family {
	case "cal":
		fmt.Fprintf(&b, "?- Meets(%d, s%d).", depth, rng.Intn(n))
	case "sub":
		b.WriteString("?- Member(")
		b.WriteString(strings.Repeat("ext(", depth))
		b.WriteByte('0')
		for i := 0; i < depth; i++ {
			fmt.Fprintf(&b, ", e%d)", rng.Intn(n))
		}
		fmt.Fprintf(&b, ", e%d).", rng.Intn(n))
	case "rob":
		b.WriteString("?- At(")
		b.WriteString(strings.Repeat("move(", depth))
		b.WriteByte('0')
		cur := 0
		for i := 0; i < depth; i++ {
			next := (cur + 1) % n
			if cur == 0 && n > 2 && rng.Intn(2) == 0 {
				next = n / 2 // the chord
			}
			fmt.Fprintf(&b, ", p%d, p%d)", cur, next)
			cur = next
		}
		fmt.Fprintf(&b, ", p%d).", rng.Intn(n))
	default:
		panic("datagen: unknown deep-query family " + family)
	}
	return b.String()
}
