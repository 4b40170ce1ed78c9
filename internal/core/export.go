package core

import (
	"context"
	"io"

	"funcdb/internal/specio"
)

// Export writes the database's relational specification (graph form plus
// the equations R and the global facts) as a self-contained JSON document.
// The document can later be answered without the rules: see LoadSpec.
func (db *Database) Export(w io.Writer) error {
	doc, err := db.Document()
	if err != nil {
		return err
	}
	return doc.Write(w)
}

// Document returns the serializable form of the specification.
func (db *Database) Document() (*specio.Document, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, err := db.graphLocked(context.Background())
	if err != nil {
		return nil, err
	}
	return specio.FromSpec(sp), nil
}

// LoadSpec makes a snapshot of a specification document. The rules are
// forgotten, as section 3 promises, and what is left — (B, T), the global
// facts and R — answers through Prepare and Plan like a compiled program's
// snapshot, by either method: a ground query by its symbol string walked
// over T (or by congruence closure over R), a uniform query by Theorem 5.1.
// Any other query needs the rules and is refused with ErrNeedsRules. A
// document's predicates are all original ones: a query naming one of
// normalization's helper predicates finds nothing.
func LoadSpec(doc *specio.Document) (*Snapshot, error) {
	sp, err := doc.Spec()
	if err != nil {
		return nil, err
	}
	s := freeze(sp)
	s.docOnly = true
	return s, nil
}
