package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"partix/internal/cluster"
	"partix/internal/partix"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// inputPin identifies a generated collection: its document count, its
// serialized size and a SHA-256 over both and every document's name and
// XML text.
type inputPin struct {
	Docs     int    `json:"docs"`
	XMLBytes int64  `json:"xml_bytes"`
	SHA256   string `json:"sha256"`
}

func pinOf(c *xmltree.Collection) inputPin {
	h := sha256.New()
	var bytes int64
	fmt.Fprintf(h, "%d\n", len(c.Docs))
	for _, d := range c.Docs {
		xml := xmltree.SerializeString(d)
		bytes += int64(len(xml))
		fmt.Fprintf(h, "%s %d\n", d.Name, len(xml))
		h.Write([]byte(xml))
	}
	return inputPin{Docs: len(c.Docs), XMLBytes: bytes, SHA256: hex.EncodeToString(h.Sum(nil))}
}

// pins.json records the pin of every workload's collection for the
// default seed, the held-out seed and the smoke test's scale. Print the
// current ones with -print-pins after a deliberate generator change.
//
//go:embed pins.json
var pinsJSON []byte

func pinKey(workload string, seed int64, scale float64) string {
	return fmt.Sprintf("%s/seed=%d/scale=%g", workload, seed, scale)
}

// checkPin fails when the generated collection differs from the recorded
// one. Seeds without a record (the driver passes arbitrary ones) pass.
func checkPin(workload string, seed int64, scale float64, got inputPin) error {
	var pins map[string]inputPin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	want, ok := pins[pinKey(workload, seed, scale)]
	if ok && want != got {
		return fmt.Errorf("input pin mismatch for %s: generated %+v, recorded %+v (the data generator changed; see -print-pins)",
			pinKey(workload, seed, scale), got, want)
	}
	return nil
}

// expectation is what the oracle recorded for one query text.
type expectation struct {
	items int
	// scalar is the answer's string value when it is a single atomic item
	// (a count), which the timed run then compares too.
	scalar    string
	hasScalar bool
	// answerBytes is the serialized size of the answer.
	answerBytes int
}

func scalarOf(items xquery.Seq) (string, bool) {
	if len(items) != 1 {
		return "", false
	}
	if _, isNode := items[0].(*xmltree.Node); isNode {
		return "", false
	}
	return xquery.ItemString(items[0]), true
}

func itemStrings(items xquery.Seq) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = xquery.ItemString(it)
	}
	sort.Strings(out)
	return out
}

// sameMultiset compares two answers as multisets of item string values.
func sameMultiset(a, b xquery.Seq) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := itemStrings(a), itemStrings(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// oracle runs every distinct text once on the fragmented deployment and
// once on the one-node centralized deployment and requires equal answers.
// It doubles as the warm-up pass. It returns the expectations the timed
// run checks each op against and the number of texts that disagreed.
func oracle(frag, central *partix.System, texts []queryText) ([]expectation, int, error) {
	exp := make([]expectation, len(texts))
	wrong := 0
	for i, q := range texts {
		want, err := central.Query(q.text)
		if err != nil {
			return nil, 0, fmt.Errorf("oracle (centralized) %q: %w", q.text, err)
		}
		got, err := frag.Query(q.text)
		if err != nil {
			return nil, 0, fmt.Errorf("oracle (fragmented) %q: %w", q.text, err)
		}
		if !sameMultiset(want.Items, got.Items) {
			wrong++
		}
		exp[i] = expectation{items: len(want.Items), answerBytes: cluster.SeqBytes(want.Items)}
		exp[i].scalar, exp[i].hasScalar = scalarOf(want.Items)
	}
	return exp, wrong, nil
}
