package main

// The interactive shell behind fdbc -i, and the renderer of fdbc -dump: a
// loaded database is interrogated with queries and commands, each answered
// from the compiled relational specification, and the paper's other forms —
// the equational specification, the canonical form and the lasso form — are
// built from it on demand.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"funcdb/internal/canonical"
	"funcdb/internal/core"
	"funcdb/internal/minimize"
	"funcdb/internal/symbols"
	"funcdb/internal/temporal"
)

const helpText = `commands:
  ?- Atom, Atom.       answer a query (specification of the answer set)
  ask ?- Atom.         yes-no answer
  explain ?- Atom.     justify a ground atom's verdict (Link-rule trace)
  add Fact(args).      insert a ground fact and re-solve (monotone update)
  rule Body -> Head.   add a rule and recompile
  enum N ?- Atom.      enumerate ground answers to term depth N
  dump graph|eq|temporal|canonical|congr|min
  stats                specification sizes and engine work
  lint                 dead rules and empty predicates
  help                 this text
  quit                 leave
`

// shell reads commands from r and writes results to w until EOF or quit.
// Lines may be 1MB long, so a large pasted fact block still fits.
func shell(db *core.Database, r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	fmt.Fprint(w, "funcdb> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		quit, err := execute(db, line, w)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
		if quit {
			return nil
		}
		fmt.Fprint(w, "funcdb> ")
	}
	fmt.Fprintln(w)
	return sc.Err()
}

// execute runs one command line and reports whether the session should end.
func execute(db *core.Database, line string, w io.Writer) (quit bool, err error) {
	switch {
	case line == "" || strings.HasPrefix(line, "%"):
		return false, nil
	case line == "quit" || line == "exit":
		return true, nil
	case line == "help":
		fmt.Fprint(w, helpText)
		return false, nil
	case line == "lint":
		fs, err := db.Lint()
		if err != nil {
			return false, err
		}
		if len(fs) == 0 {
			fmt.Fprintln(w, "no findings")
		}
		for _, f := range fs {
			fmt.Fprintln(w, f)
		}
		return false, nil
	case line == "stats":
		st, err := db.Stats(context.Background())
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "temporal %v, c=%d, seed=%d, %d reps, %d edges, %d tuples, |R|=%d\n",
			st.Temporal, st.C, st.SeedDepth, st.Reps, st.Edges, st.Tuples, st.Equations)
		return false, nil
	case strings.HasPrefix(line, "dump"):
		return false, dump(db, strings.TrimSpace(strings.TrimPrefix(line, "dump")), w)
	case strings.HasPrefix(line, "add "):
		if err := db.Extend(strings.TrimSpace(strings.TrimPrefix(line, "add "))); err != nil {
			return false, err
		}
		fmt.Fprintln(w, "ok")
		return false, nil
	case strings.HasPrefix(line, "rule "):
		if err := db.ExtendRules(strings.TrimSpace(strings.TrimPrefix(line, "rule "))); err != nil {
			return false, err
		}
		fmt.Fprintln(w, "ok (recompiled)")
		return false, nil
	case strings.HasPrefix(line, "explain"):
		q := strings.TrimSpace(strings.TrimPrefix(line, "explain"))
		exs, err := db.Explain(q)
		if err != nil {
			return false, err
		}
		for _, ex := range exs {
			fmt.Fprint(w, ex.String())
		}
		return false, nil
	case strings.HasPrefix(line, "ask"):
		q := strings.TrimSpace(strings.TrimPrefix(line, "ask"))
		yes, err := db.Ask(context.Background(), q)
		if err != nil {
			return false, err
		}
		fmt.Fprintln(w, yes)
		return false, nil
	case strings.HasPrefix(line, "enum"):
		rest := strings.TrimSpace(strings.TrimPrefix(line, "enum"))
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: enum N ?- Atom.")
		}
		depth, err := strconv.Atoi(fields[0])
		if err != nil {
			return false, fmt.Errorf("bad depth %q", fields[0])
		}
		return false, enumerate(db, fields[1], depth, w)
	case strings.HasPrefix(line, "?-"):
		ans, err := db.Answers(context.Background(), line)
		if err != nil {
			return false, err
		}
		fmt.Fprint(w, ans.Dump())
		return false, nil
	}
	return false, fmt.Errorf("unknown command %q (try help)", line)
}

func enumerate(db *core.Database, qsrc string, depth int, w io.Writer) error {
	ans, err := db.Answers(context.Background(), qsrc)
	if err != nil {
		return err
	}
	count := 0
	err = ans.Paths(context.Background(), depth, func(path []symbols.FuncID, args []symbols.ConstID) bool {
		count++
		fmt.Fprint(w, "  ")
		first := true
		if ans.HasFunctionalAnswers() {
			w.Write(ans.AppendPath(nil, path))
			first = false
		}
		for _, c := range args {
			if !first {
				fmt.Fprint(w, ", ")
			}
			first = false
			fmt.Fprint(w, ans.ConstName(c))
		}
		fmt.Fprintln(w)
		return true
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d answers to depth %d\n", count, depth)
	return nil
}

// dump prints one specification of db: the graph specification (B, T), the
// equational specification (R with its congruence-closure solver, §3.5), the
// canonical form's database C or its CONGR rules (§3.6), the lasso form of a
// temporal program (§4), or the minimized specification.
func dump(db *core.Database, kind string, w io.Writer) error {
	sp, err := db.Graph()
	if err != nil {
		return err
	}
	switch kind {
	case "graph":
		fmt.Fprint(w, sp.Dump())
	case "eq":
		fmt.Fprint(w, canonical.Build(sp).EqSpec().Dump(db.Tab()))
	case "temporal":
		ts, err := temporal.Build(sp)
		if err != nil {
			return err
		}
		fmt.Fprint(w, ts.Dump())
	case "canonical":
		fmt.Fprint(w, canonical.Build(sp).DatabaseC())
	case "congr":
		fmt.Fprint(w, canonical.Build(sp).CongrRules())
	case "min":
		m, err := minimize.Minimize(sp)
		if err != nil {
			return err
		}
		fmt.Fprint(w, m.Dump())
	default:
		return fmt.Errorf("unknown dump kind %q", kind)
	}
	return nil
}
