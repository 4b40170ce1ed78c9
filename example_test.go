package funcdb_test

import (
	"context"
	"fmt"
	"log"

	"funcdb"
)

// The section 1 example: an infinite meeting schedule, answered from its
// finite graph specification.
func ExampleOpen() {
	db, err := funcdb.Open(`
		Meets(0, tony).
		Next(tony, jan).
		Next(jan, tony).
		Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
	`, funcdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []string{
		"?- Meets(4, tony).",
		"?- Meets(5, tony).",
	} {
		yes, err := db.Ask(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(q, yes)
	}
	// Output:
	// ?- Meets(4, tony). true
	// ?- Meets(5, tony). false
}

// Enumerating a finitely-represented infinite answer set to a chosen depth.
func ExampleDatabase_Answers() {
	db, err := funcdb.Open(`
		Even(0).
		Even(T) -> Even(T+2).
	`, funcdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ans, err := db.Answers(context.Background(), "?- Even(T).")
	if err != nil {
		log.Fatal(err)
	}
	err = ans.Paths(context.Background(), 7, func(t []funcdb.FuncID, _ []funcdb.ConstID) bool {
		fmt.Printf("%s ", ans.AppendPath(nil, t))
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	// Output:
	// 0 2 4 6
}

// The equational specification of section 3.5, the canonical form's R =
// {(0, 2)}, and the congruence-closure membership test.
func ExampleBuildCanonical() {
	db, err := funcdb.Open(`
		Even(0).
		Even(T) -> Even(T+2).
	`, funcdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := db.Graph()
	if err != nil {
		log.Fatal(err)
	}
	eq := funcdb.BuildCanonical(spec).EqSpec()
	succ, _ := db.Tab().LookupFunc("succ", 0)
	u := db.Universe()
	fmt.Println("|R| =", eq.Size())
	fmt.Println("(0,4) in Cl(R):", eq.Congruent(u.Number(0, succ), u.Number(4, succ)))
	fmt.Println("(0,3) in Cl(R):", eq.Congruent(u.Number(0, succ), u.Number(3, succ)))
	// Output:
	// |R| = 1
	// (0,4) in Cl(R): true
	// (0,3) in Cl(R): false
}

// Temporal programs get a lasso with O(1) membership.
func ExampleBuildTemporal() {
	db, err := funcdb.Open(`
		Backup(1).
		Backup(T) -> Backup(T+3).
	`, funcdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := db.Graph()
	if err != nil {
		log.Fatal(err)
	}
	lasso, err := funcdb.BuildTemporal(spec)
	if err != nil {
		log.Fatal(err)
	}
	backup, _ := db.Tab().LookupPred("Backup", 0, true)
	fmt.Println("prefix", lasso.Prefix, "period", lasso.Period)
	fmt.Println("Backup(3000001):", lasso.Has(backup, 3000001, nil))
	// Output:
	// prefix 1 period 3
	// Backup(3000001): true
}
