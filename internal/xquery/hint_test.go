package xquery

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"partix/internal/xmltree"
)

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"a good Disc": {"a", "good", "disc"},
		"CD":          {"cd"},
		"  x  y ":     {"x", "y"},
		"":            nil,
		"2005-01-01":  {"2005", "01", "01"},
		"don't-stop":  {"don", "t", "stop"},
	}
	for in, want := range cases {
		if got := Tokenize(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestExtractHintsEqualityAndContains(t *testing.T) {
	e := MustParse(`for $i in collection("items")/Item
	  where $i/Section = "CD" and contains($i/Description, "good")
	  return $i/Code`)
	hints := ExtractHints(e)
	h := hints["items"]
	if h == nil {
		t.Fatalf("hints = %+v", hints)
	}
	text := textConstraints(h)
	if len(text) != 2 {
		t.Fatalf("text constraints = %+v", text)
	}
	if !reflect.DeepEqual(text[0].Tokens, []string{"cd"}) {
		t.Fatalf("eq constraint = %+v", text[0])
	}
	if text[1].Substring != "good" {
		t.Fatalf("contains constraint = %+v", text[1])
	}
}

func TestExtractHintsStepPredicates(t *testing.T) {
	// A path's step predicates constrain the scan it starts from, in a
	// for-binding and in a path-form query alike.
	for _, q := range []string{
		`for $i in collection("items")/Item[Section = "CD"] return $i/Name`,
		`collection("items")/Item[Section = "CD"]/Name`,
	} {
		hints := ExtractHints(MustParse(q))
		h := hints["items"]
		if h == nil {
			t.Fatalf("%s: hints = %+v", q, hints)
		}
		text := textConstraints(h)
		if len(text) != 1 || !reflect.DeepEqual(text[0].Tokens, []string{"cd"}) {
			t.Fatalf("%s: hints = %+v", q, text)
		}
	}
}

func TestExtractScanHintsKeyedByScan(t *testing.T) {
	// Two scans of one collection: the where clause over $i narrows $i's
	// scan only, and the by-name view gives the collection no hint.
	e := MustParse(`(for $i in collection("items")/Item where $i/Section = "CD" return $i/Code,
	  for $j in collection("items")/Item return $j/Code)`)
	hints := ExtractScanHints(e)
	seq := e.(*Sequence)
	first := hints.Scan(seq.Items[0].(*FLWOR).Clauses[0].In)
	second := hints.Scan(seq.Items[1].(*FLWOR).Clauses[0].In)
	if first == nil || second == nil || len(hints) != 2 {
		t.Fatalf("hints = %+v", hints)
	}
	if text := textConstraints(first); len(text) != 1 || !reflect.DeepEqual(text[0].Tokens, []string{"cd"}) {
		t.Fatalf("first scan = %+v", first.Constraints)
	}
	if text := textConstraints(second); len(text) != 0 || len(pathConstraints(second)) != 0 {
		t.Fatalf("second scan borrowed the first's constraints: %+v", second.Constraints)
	}
	if h := ExtractHints(e)["items"]; h != nil {
		t.Fatalf("a collection scanned twice got a by-name hint: %+v", h)
	}
}

func TestExtractScanHintsNestedBinding(t *testing.T) {
	// $p ranges over $i's documents: its binding path and its where
	// conjunct constrain $i's scan.
	h := ExtractHints(MustParse(`for $i in collection("items")/Item, $p in $i/PictureList[Picture]
	  where $p/Name = "x" return $p`))["items"]
	pcs := pathConstraints(h)
	want := []LabelStep{{Name: "Item"}, {Name: "PictureList"}, {Name: "Name"}}
	if len(pcs) != 1 || pcs[0].Op != CmpEq || !reflect.DeepEqual(pcs[0].Steps, want) {
		t.Fatalf("path constraints = %+v", pcs)
	}
	wantExists := []string{"/Item", "/Item/PictureList", "/Item/PictureList/Picture"}
	if got := existsPaths(h); !reflect.DeepEqual(got, wantExists) {
		t.Fatalf("exists constraints = %v, want %v", got, wantExists)
	}
}

func TestExtractHintsContainsCarriesPath(t *testing.T) {
	// The needle keeps its case and spaces on Contains; only an
	// alphanumeric needle also gives the index's Substring form.
	h := ExtractHints(MustParse(`for $i in collection("items")/Item
	  where contains($i/Description, "Good Disc") and contains($i/Name, "Ab") return $i`))["items"]
	var got []ContainsConstraint
	for _, c := range h.Constraints {
		if c.Contains != nil {
			got = append(got, *c.Contains)
			if want := map[string]string{"Good Disc": "", "Ab": "ab"}[c.Contains.Needle]; c.Substring != want {
				t.Errorf("%q: substring = %q, want %q", c.Contains.Needle, c.Substring, want)
			}
		}
	}
	want := []ContainsConstraint{
		{Steps: []LabelStep{{Name: "Item"}, {Name: "Description"}}, Needle: "Good Disc"},
		{Steps: []LabelStep{{Name: "Item"}, {Name: "Name"}}, Needle: "Ab"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("contains constraints = %+v, want %+v", got, want)
	}
}

func TestExtractHintsLiteralKind(t *testing.T) {
	// A string that parses as a number compares numerically ("1.0" equals
	// "1"), so it gives no token witness either; the literal's written
	// kind is kept.
	cases := []struct {
		cond    string
		numeric bool
		tokens  bool
	}{
		{`$i/Section = "CD"`, false, true},
		{`$i/Section = "1.0"`, false, false},
		{`$i/@id = " 5"`, false, false},
		{`$i/@id = 5`, true, false},
	}
	for _, tc := range cases {
		q := `for $i in collection("items")/Item where ` + tc.cond + ` return $i`
		h := ExtractHints(MustParse(q))["items"]
		pcs := pathConstraints(h)
		if len(pcs) != 1 || pcs[0].Numeric != tc.numeric {
			t.Errorf("%s: path constraints = %+v", q, pcs)
		}
		if got := len(textConstraints(h)) > 0; got != tc.tokens {
			t.Errorf("%s: token witness = %v, want %v", q, got, tc.tokens)
		}
	}
}

func TestExtractHintsIgnoresUnsafePositions(t *testing.T) {
	queries := []string{
		// Negation: docs without "good" still match.
		`for $i in collection("items")/Item where not(contains($i/Description, "good")) return $i`,
		// Disjunction: neither side is necessary.
		`for $i in collection("items")/Item where $i/Section = "CD" or $i/Section = "DVD" return $i`,
		// Non-literal needle.
		`for $i in collection("items")/Item where contains($i/Description, $i/Code) return $i`,
		// Needle with a space could span tokens.
		`for $i in collection("items")/Item where contains($i/Description, "good disc") return $i`,
		// Inequality is not a token witness.
		`for $i in collection("items")/Item where $i/Section != "CD" return $i`,
		// Path with an inner predicate could invert the match.
		`for $i in collection("items")/Item where $i/PictureList[empty(Picture)]/Name = "CD" return $i`,
		// Step predicates of a path over a for-variable are necessary
		// neither under not() nor in a return clause.
		`for $i in collection("items") where not($i/Item[Section = "CD"]) return $i/Item/Code`,
		`for $i in collection("items") return <r>{$i/Item[Section = "CD"]/Code}</r>`,
		`for $d in collection("items") return <r>{count($d/Item[Section = "CD"])}</r>`,
		// A let rebinds $i: the where clause no longer reads the scan.
		`for $i in collection("items")/Item let $i := $i/Code where $i = "CD" return $i`,
	}
	for _, q := range queries {
		hints := ExtractHints(MustParse(q))
		// The for-binding legitimately requires the Item element; no text
		// constraint may leak from the unsafe positions.
		if h := hints["items"]; h != nil && len(textConstraints(h)) > 0 {
			t.Errorf("%s: unsafe hint extracted: %+v", q, h.Constraints)
		}
	}
}

// textConstraints filters a hint to its token/substring conjuncts.
func textConstraints(h *Hint) []Constraint {
	var out []Constraint
	for _, c := range h.Constraints {
		if len(c.Tokens) > 0 || c.Substring != "" {
			out = append(out, c)
		}
	}
	return out
}

func TestExtractHintsPerVariableCollection(t *testing.T) {
	e := MustParse(`for $a in collection("prolog")/article, $b in collection("body")/article
	  where $a/@id = $b/@id and contains($b/body, "model")
	  return $a/prolog/title`)
	hints := ExtractHints(e)
	if hints["prolog"] != nil && len(textConstraints(hints["prolog"])) > 0 {
		t.Fatalf("prolog should have no text constraints: %+v", hints["prolog"])
	}
	h := hints["body"]
	if h == nil {
		t.Fatal("no body hints")
	}
	text := textConstraints(h)
	if len(text) != 1 || text[0].Substring != "model" {
		t.Fatalf("body hints = %+v", text)
	}
}

func TestExtractHintsLiteralOnLeft(t *testing.T) {
	e := MustParse(`for $i in collection("items")/Item where "CD" = $i/Section return $i`)
	h := ExtractHints(e)["items"]
	if h == nil {
		t.Fatal("no hints")
	}
	text := textConstraints(h)
	if len(text) != 1 || !reflect.DeepEqual(text[0].Tokens, []string{"cd"}) {
		t.Fatalf("hints = %+v", text)
	}
}

func TestExtractHintsMultiTokenEquality(t *testing.T) {
	e := MustParse(`for $i in collection("items")/Item where $i/Description = "a good disc" return $i`)
	h := ExtractHints(e)["items"]
	if h == nil || !reflect.DeepEqual(textConstraints(h)[0].Tokens, []string{"a", "good", "disc"}) {
		t.Fatalf("hints = %+v", h)
	}
}

// existsPaths lists a hint's CmpExists Paths, formatted, in order.
func existsPaths(h *Hint) []string {
	var out []string
	for _, c := range h.Constraints {
		if c.Path != nil && c.Path.Op == CmpExists {
			out = append(out, FormatLabelSteps(c.Path.Steps))
		}
	}
	return out
}

func TestExtractHintsExistsPaths(t *testing.T) {
	e := MustParse(`for $i in collection("items")/Item
	  where exists($i/PictureList/Picture) and $i/Section = "CD"
	  return $i/Code`)
	h := ExtractHints(e)["items"]
	if h == nil {
		t.Fatal("no hints")
	}
	// Binding requires Item; the exists() requires Item/PictureList/Picture.
	want := []string{"/Item", "/Item/PictureList/Picture"}
	if got := existsPaths(h); !reflect.DeepEqual(got, want) {
		t.Fatalf("exists constraints = %v, want %v", got, want)
	}
}

func TestExtractHintsBareExistenceTerm(t *testing.T) {
	e := MustParse(`for $i in collection("items")/Item where $i/PictureList return $i/Code`)
	h := ExtractHints(e)["items"]
	if got := existsPaths(h); !slices.Contains(got, "/Item/PictureList") {
		t.Fatalf("bare existence term not extracted: %v", got)
	}
}

func TestExtractHintsExistsSkipUnsafe(t *testing.T) {
	queries := []string{
		// Negated existence must not require the path.
		`for $i in collection("items")/Item where not(exists($i/PictureList)) return $i`,
		// Disjunction of existence tests is not conjunctive.
		`for $i in collection("items")/Item where $i/PictureList or $i/PricesHistory return $i`,
	}
	for _, q := range queries {
		h := ExtractHints(MustParse(q))["items"]
		if h == nil {
			continue
		}
		if got := existsPaths(h); !reflect.DeepEqual(got, []string{"/Item"}) {
			t.Errorf("%s: exists constraints %v, want only the binding's /Item", q, got)
		}
	}
}

// A text() step leaves the path summary its element's path: a necessary
// condition, but not the path's own, so the hint stays incomplete.
func TestExtractHintsTextStepKeepsElementPath(t *testing.T) {
	hints := ExtractScanHints(MustParse(`collection("items")/Item/Name/text()`))
	if len(hints) != 1 {
		t.Fatalf("%d scans", len(hints))
	}
	for _, h := range hints {
		if got := existsPaths(h); !reflect.DeepEqual(got, []string{"/Item/Name"}) {
			t.Fatalf("exists constraints = %v, want [/Item/Name]", got)
		}
		if h.Complete {
			t.Fatal("a text() path's hint is complete")
		}
	}
}

// pathConstraints filters a hint to its path-qualified conjuncts, skipping
// the bare existence constraint every for-binding contributes.
func pathConstraints(h *Hint) []*PathConstraint {
	var out []*PathConstraint
	for _, c := range h.Constraints {
		if c.Path != nil && c.Path.Op != CmpExists {
			out = append(out, c.Path)
		}
	}
	return out
}

func TestExtractHintsRangeOps(t *testing.T) {
	cases := map[string]CmpOp{"<": CmpLt, "<=": CmpLe, ">": CmpGt, ">=": CmpGe}
	for op, want := range cases {
		q := `for $i in collection("items")/Item where $i/@id ` + op + ` 15 return $i`
		h := ExtractHints(MustParse(q))["items"]
		if h == nil {
			t.Fatalf("%s: no hints", q)
		}
		pcs := pathConstraints(h)
		if len(pcs) != 1 {
			t.Fatalf("%s: path constraints = %+v", q, pcs)
		}
		pc := pcs[0]
		if pc.Op != want || pc.Literal != "15" {
			t.Errorf("%s: constraint = %+v", q, pc)
		}
		wantSteps := []LabelStep{{Name: "Item"}, {Name: "id", Attr: true}}
		if !reflect.DeepEqual(pc.Steps, wantSteps) {
			t.Errorf("%s: steps = %+v, want %+v", q, pc.Steps, wantSteps)
		}
		// A numeric range term is no token witness.
		if text := textConstraints(h); len(text) != 0 {
			t.Errorf("%s: unexpected text constraints %+v", q, text)
		}
	}
}

func TestExtractHintsRangeLiteralOnLeft(t *testing.T) {
	// 15 > $i/@id  ⟺  $i/@id < 15: the operator must mirror.
	h := ExtractHints(MustParse(
		`for $i in collection("items")/Item where 15 > $i/@id return $i`))["items"]
	pcs := pathConstraints(h)
	if len(pcs) != 1 || pcs[0].Op != CmpLt || pcs[0].Literal != "15" {
		t.Fatalf("path constraints = %+v", pcs)
	}
}

func TestExtractHintsNumericEqualityHasNoTokens(t *testing.T) {
	// A numeric literal compares numerically ("100" also matches "100.0"),
	// so equality on a NumberLit yields a path constraint but no tokens.
	h := ExtractHints(MustParse(
		`for $i in collection("items")/Item where $i/@id = 100 return $i`))["items"]
	if text := textConstraints(h); len(text) != 0 {
		t.Fatalf("numeric equality produced token constraints: %+v", text)
	}
	pcs := pathConstraints(h)
	if len(pcs) != 1 || pcs[0].Op != CmpEq || pcs[0].Literal != "100" {
		t.Fatalf("path constraints = %+v", pcs)
	}
}

func TestExtractHintsStringEqualityCarriesPath(t *testing.T) {
	// String equality keeps its token witness and gains the path-qualified
	// form in the same conjunct.
	h := ExtractHints(MustParse(
		`for $i in collection("items")/Item where $i/Section = "CD" return $i`))["items"]
	var found bool
	for _, c := range h.Constraints {
		if len(c.Tokens) == 0 {
			continue
		}
		found = true
		if c.Path == nil || c.Path.Op != CmpEq || c.Path.Literal != "CD" {
			t.Fatalf("equality constraint lacks path form: %+v", c)
		}
		want := []LabelStep{{Name: "Item"}, {Name: "Section"}}
		if !reflect.DeepEqual(c.Path.Steps, want) {
			t.Fatalf("steps = %+v, want %+v", c.Path.Steps, want)
		}
	}
	if !found {
		t.Fatalf("no token constraint: %+v", h.Constraints)
	}
}

func TestExtractHintsStepPredicateRange(t *testing.T) {
	// A range term inside a binding-path predicate extends the context
	// prefix: collection("items")/Item[@id >= 2] constrains Item/@id.
	h := ExtractHints(MustParse(
		`for $i in collection("items")/Item[@id >= 2] return $i`))["items"]
	pcs := pathConstraints(h)
	want := []LabelStep{{Name: "Item"}, {Name: "id", Attr: true}}
	if len(pcs) != 1 || pcs[0].Op != CmpGe || pcs[0].Literal != "2" ||
		!reflect.DeepEqual(pcs[0].Steps, want) {
		t.Fatalf("path constraints = %+v", pcs)
	}
}

func TestExtractHintsContextItemPredicate(t *testing.T) {
	// [. = "lit"] compares the step's own value: the constraint path is the
	// context prefix itself.
	h := ExtractHints(MustParse(
		`for $i in collection("items")/Item/Section[. = "CD"] return $i`))["items"]
	pcs := pathConstraints(h)
	want := []LabelStep{{Name: "Item"}, {Name: "Section"}}
	if len(pcs) != 1 || pcs[0].Op != CmpEq || pcs[0].Literal != "CD" ||
		!reflect.DeepEqual(pcs[0].Steps, want) {
		t.Fatalf("path constraints = %+v", pcs)
	}
}

func TestExtractHintsBindingPathExists(t *testing.T) {
	// Every for-binding contributes a CmpExists constraint for its path.
	h := ExtractHints(MustParse(
		`for $i in collection("items")/Item/PictureList return $i`))["items"]
	var exist []*PathConstraint
	for _, c := range h.Constraints {
		if c.Path != nil && c.Path.Op == CmpExists {
			exist = append(exist, c.Path)
		}
	}
	want := []LabelStep{{Name: "Item"}, {Name: "PictureList"}}
	if len(exist) != 1 || !reflect.DeepEqual(exist[0].Steps, want) {
		t.Fatalf("exists constraints = %+v", exist)
	}
}

func TestExtractHintsRangeSkipsUnsafePositions(t *testing.T) {
	queries := []string{
		// Disjunction: neither side is necessary.
		`for $i in collection("items")/Item where $i/@id < 2 or $i/@id > 5 return $i`,
		// Negation.
		`for $i in collection("items")/Item where not($i/@id < 2) return $i`,
		// != is no witness.
		`for $i in collection("items")/Item where $i/@id != 2 return $i`,
		// Inner predicate on the path side could invert the match.
		`for $i in collection("items")/Item where $i/PictureList[Picture]/Name = "x" return $i`,
	}
	for _, q := range queries {
		h := ExtractHints(MustParse(q))["items"]
		if h == nil {
			continue
		}
		if pcs := pathConstraints(h); len(pcs) != 0 {
			t.Errorf("%s: unsafe path constraints %+v", q, pcs)
		}
	}
}

func TestHintsAreSound(t *testing.T) {
	// Evaluating with and without hint-based pruning must agree. The
	// pruning source drops documents failing the constraints the way the
	// engine's index would.
	src := itemsSource()
	queries := []string{
		`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`,
		`for $i in collection("items")/Item where contains($i/Description, "good") return $i/Code`,
		`for $i in collection("items")/Item where $i/Section = "CD" and contains($i/Description, "disc") return $i/Code`,
		`(for $i in collection("items")/Item where $i/Section = "CD" return $i/Code, for $j in collection("items")/Item return $j/Code)`,
		`for $j in collection("items")/Item return <r>{for $i in collection("items")/Item where $i/Section = "CD" return $i/Code}</r>`,
		`count(for $i in collection("items")/Item, $j in collection("items")/Item where $i/Section = "CD" and $j/Section = "DVD" return $j)`,
		`count(collection("items")/Item[Section = "CD"])`,
	}
	for _, q := range queries {
		e := MustParse(q)
		full, err := Eval(e, src)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := Eval(e, &pruningSource{inner: src})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := seqStrings(full), seqStrings(pruned); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %v full, %v pruned", q, a, b)
		}
	}
}

func seqStrings(s Seq) []string {
	out := make([]string, len(s))
	for i, it := range s {
		out[i] = ItemString(it)
	}
	return out
}

// pruningSource simulates index-based candidate pruning by evaluating the
// hint against each document's token set, exactly as the engine's inverted
// index does.
type pruningSource struct{ inner *memSource }

func (p *pruningSource) Doc(name string) (*xmltree.Document, error) {
	return p.inner.Doc(name)
}

func (p *pruningSource) Docs(name string, hint *Hint, fn func(*xmltree.Document) error) error {
	return p.inner.Docs(name, hint, func(d *xmltree.Document) error {
		if hint != nil && !docSatisfiesHint(d, hint) {
			return nil
		}
		return fn(d)
	})
}

func docSatisfiesHint(d *xmltree.Document, h *Hint) bool {
	tokens := map[string]bool{}
	d.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.TextNode {
			for _, tok := range Tokenize(n.Value) {
				tokens[tok] = true
			}
		}
		return true
	})
	for _, c := range h.Constraints {
		if len(c.Tokens) > 0 {
			for _, tok := range c.Tokens {
				if !tokens[tok] {
					return false
				}
			}
		}
		if c.Substring != "" {
			found := false
			for tok := range tokens {
				if strings.Contains(tok, c.Substring) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// TestExtractScanHintsComplete: a scan's hint is complete exactly when
// every conjunct that may filter its bindings became a constraint with a
// root-anchored Path, and its binding paths have one.
func TestExtractScanHintsComplete(t *testing.T) {
	for _, tc := range []struct {
		query    string
		complete bool
	}{
		{`collection("items")/Item`, true},
		{`collection("items")/Item[Section = "CD"][@id < 5]/Code`, true},
		{`for $i in collection("items")/Item where $i/Section = "CD" and exists($i/PictureList) return $i`, true},
		{`for $i in collection("items")/Item, $p in $i/PictureList/Picture where $p/@n = 1 return $p`, true},
		{`for $s in collection("items")/Item/Section where $s = "CD" return $s`, true},
		// contains keeps a constraint, but no Path.
		{`for $i in collection("items")/Item where contains($i/Description, "good") return $i`, false},
		// Dropped: !=, or, not(), a path with a predicate, no literal.
		{`collection("items")/Item[Section != "CD"]`, false},
		{`for $i in collection("items")/Item where $i/Section = "CD" or $i/Section = "DVD" return $i`, false},
		{`for $i in collection("items")/Item where not($i/PictureList) return $i`, false},
		{`for $i in collection("items")/Item where $i/PictureList[Picture] return $i`, false},
		{`collection("items")/Item[Section = Code]`, false},
		{`collection("items")/Item[1]`, false},
		// text() has no label: the binding path's Path names the text's
		// element, the comparison yields no Path.
		{`collection("items")/Item/text()`, false},
		{`for $i in collection("items")/Item where $i/Section/text() = "CD" return $i`, false},
		// A term over a let variable may filter the scan's bindings.
		{`for $i in collection("items")/Item let $s := $i/Section where $s = "CD" return $i`, false},
		// A nested binding's step predicates count like the scan's own.
		{`for $i in collection("items")/Item, $p in $i/PictureList/Picture[@n != 1] return $p`, false},
	} {
		hints := ExtractScanHints(MustParse(tc.query))
		if len(hints) != 1 {
			t.Fatalf("%s: %d scans", tc.query, len(hints))
		}
		for _, h := range hints {
			if h.Complete != tc.complete {
				t.Errorf("%s: complete %v, want %v (%+v)", tc.query, h.Complete, tc.complete, h.Constraints)
			}
		}
	}
}
