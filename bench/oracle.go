package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"funcdb/internal/core"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// oracle answers queries in-process, independently of the daemons: ground
// asks by congruence closure against the equational specification (B, R) —
// not the DFA walk the serving path uses — and open queries through
// Snapshot.Answers at the same depth and limit.
type oracle struct {
	snaps map[string]*core.Snapshot
}

// newOracle compiles every program of progs (database name -> source).
func newOracle(progs map[string]string) (*oracle, error) {
	o := &oracle{snaps: make(map[string]*core.Snapshot, len(progs))}
	for name, src := range progs {
		db, err := core.Open(src, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle: open %s: %w", name, err)
		}
		s, err := db.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("oracle: snapshot %s: %w", name, err)
		}
		o.snaps[name] = s
	}
	return o, nil
}

func (o *oracle) ask(ctx context.Context, db, text string) (bool, error) {
	return askEquational(ctx, o.snaps[db], text)
}

func askEquational(ctx context.Context, s *core.Snapshot, text string) (bool, error) {
	return s.Ask(ctx, text, core.WithMethod(core.MethodEquational))
}

func (o *oracle) answers(ctx context.Context, q answersQuery) (tupleSet, error) {
	return answersSet(ctx, o.snaps[q.DB], q.Text, q.Depth, answersLimit)
}

// tupleSet identifies an answer set without keeping it: the tuple count and
// an order-independent sum of per-tuple hashes.
type tupleSet struct {
	Count     int
	Sum       uint64
	Truncated bool
}

func (t *tupleSet) add(termStr string, args []string) {
	h := fnv.New64a()
	h.Write([]byte(termStr))
	for _, a := range args {
		h.Write([]byte{0})
		h.Write([]byte(a))
	}
	t.Sum += h.Sum64()
	t.Count++
}

// answersSet evaluates an open query on s and condenses the tuples rendered
// the way the daemon renders them.
func answersSet(ctx context.Context, s *core.Snapshot, text string, depth, limit int) (tupleSet, error) {
	var set tupleSet
	err := enumerate(ctx, s, text, depth, limit, func(termStr string, args []string) {
		set.add(termStr, args)
	}, &set.Truncated)
	return set, err
}

// enumerate yields the rendered tuples of an open query up to limit.
func enumerate(ctx context.Context, s *core.Snapshot, text string, depth, limit int, yield func(termStr string, args []string), truncated *bool) error {
	ans, err := s.Answers(ctx, text)
	if err != nil {
		return err
	}
	n := 0
	return ans.EnumerateContext(ctx, depth, func(ft term.Term, cs []symbols.ConstID) bool {
		if n >= limit {
			*truncated = true
			return false
		}
		n++
		termStr := ""
		if ft != term.None {
			termStr = ans.CompactTermString(ft)
		}
		args := make([]string, len(cs))
		for i, c := range cs {
			args[i] = ans.ConstName(c)
		}
		yield(termStr, args)
		return true
	})
}

// tupleKey is the identity of one rendered tuple inside a watch state.
func tupleKey(termStr string, args []string) string {
	return termStr + "\x00" + strings.Join(args, "\x01")
}
