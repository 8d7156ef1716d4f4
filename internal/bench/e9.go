package bench

import (
	"fmt"

	"idlog/internal/core"
	"idlog/internal/disjunctive"
	"idlog/internal/inflate"
	"idlog/internal/stable"
	"idlog/internal/value"
	"idlog/internal/wellfounded"
)

// E9 surveys the §3.2 landscape: the same "guess each person's sex"
// query expressed in four non-deterministic formalisms — DATALOG∨
// minimal models, stable models, DL inflationary outcomes, and IDLOG —
// verifying that all four define the same answer family and comparing
// the cost of enumerating it. The well-founded semantics of the same
// negation program is the deterministic contrast: it must leave every
// sex atom undefined.
func E9(persons []int) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "one query, four semantics: DATALOG∨ / stable models / DL / IDLOG",
		Claim:   "(§3.2) disjunctive heads, stable models and the inflationary semantics all express the Example-2 query; IDLOG subsumes them while staying within perfect-model semantics",
		Columns: []string{"persons", "semantics", "answers", "time ms"},
	}
	disj, err := disjunctive.Parse(`man(X), woman(X) :- person(X).`)
	if err != nil {
		panic(err)
	}
	const negSrc = `
		man(X) :- person(X), not woman(X).
		woman(X) :- person(X), not man(X).
	`
	stab, err := stable.Parse(negSrc)
	if err != nil {
		panic(err)
	}
	wfs, err := wellfounded.Parse(negSrc)
	if err != nil {
		panic(err)
	}
	dl, err := inflate.Parse(inflate.DL, negSrc)
	if err != nil {
		panic(err)
	}
	idlogInfo := mustAnalyze(mustParse(`
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
	`))

	for _, n := range persons {
		db := core.NewDatabase()
		for i := 0; i < n; i++ {
			_ = db.Add("person", value.Strs(fmt.Sprintf("p%02d", i)))
		}
		families := map[string]map[string]bool{}
		record := func(name string, fps map[string]bool, d string) {
			families[name] = fps
			t.Rows = append(t.Rows, []string{fmt.Sprint(n), name, fmt.Sprint(len(fps)), d})
		}

		var fps map[string]bool
		dur, err := timed(func() error {
			models, err := disj.MinimalModels(db, disjunctive.Options{MaxAtoms: 24})
			if err != nil {
				return err
			}
			fps = map[string]bool{}
			for _, m := range models {
				fps[m.Relation("man", 1).Fingerprint()] = true
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		record("DATALOG∨ minimal", fps, ms(dur))

		dur, err = timed(func() error {
			models, err := stab.StableModels(db, stable.Options{MaxAtoms: 24})
			if err != nil {
				return err
			}
			fps = map[string]bool{}
			for _, m := range models {
				fps[m.Relation("man", 1).Fingerprint()] = true
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		record("stable models", fps, ms(dur))

		dur, err = timed(func() error {
			answers, err := dl.EnumerateOutcomes(db, []string{"man"}, inflate.EnumerateOptions{MaxStates: 2000000})
			if err != nil {
				return err
			}
			fps = map[string]bool{}
			for _, a := range answers {
				fps[a.Relations["man"].Fingerprint()] = true
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		record("DL inflationary", fps, ms(dur))

		dur, err = timed(func() error {
			answers, err := core.Enumerate(idlogInfo, db, []string{"man"}, core.EnumerateOptions{MaxRuns: 2000000})
			if err != nil {
				return err
			}
			fps = map[string]bool{}
			for _, a := range answers {
				fps[a.Relations["man"].Fingerprint()] = true
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		record("IDLOG", fps, ms(dur))

		// All four families must coincide.
		ref := families["IDLOG"]
		for name, f := range families {
			if len(f) != len(ref) {
				panic(fmt.Sprintf("E9: %s family size %d != IDLOG %d", name, len(f), len(ref)))
			}
			for k := range f {
				if !ref[k] {
					panic(fmt.Sprintf("E9: %s family member missing from IDLOG's", name))
				}
			}
		}

		// The deterministic contrast: WFS refuses to choose, so every
		// contested atom — man(p) and woman(p) for each person — must be
		// undefined and nothing true.
		var undefined int
		dur, err = timed(func() error {
			m, err := wfs.WellFounded(db, wellfounded.Options{})
			if err != nil {
				return err
			}
			man, woman := m.Relation("man", wellfounded.Undefined), m.Relation("woman", wellfounded.Undefined)
			if man.Len() != n || woman.Len() != n || len(m.Atoms(wellfounded.True)) != 0 {
				return fmt.Errorf("E9: well-founded model decides a sex atom (%d/%d undefined of %d persons, %d true)",
					man.Len(), woman.Len(), n, len(m.Atoms(wellfounded.True)))
			}
			undefined = man.Len() + woman.Len()
			return nil
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), "well-founded (contrast)", fmt.Sprintf("none (%d atoms undefined)", undefined), ms(dur)})
	}
	t.Notes = append(t.Notes,
		"all four answer families verified identical at every size",
		"the well-founded model of the negation program is verified to leave every man/woman atom undefined at every size (no answer: WFS cannot choose)",
		"stable/disjunctive use exponential subset search (semantic reference implementations), so their times grow as 2^(2n)")
	return t
}
