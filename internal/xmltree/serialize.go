package xmltree

import (
	"bufio"
	"io"
	"strings"
)

// Serialize writes the document as XML text to w. Output is compact (no
// indentation); attributes precede element content, both in document order.
func Serialize(d *Document, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if d.Root != nil {
		serializeNode(bw, d.Root)
	}
	return bw.Flush()
}

// SerializeString returns the document as XML text.
func SerializeString(d *Document) string {
	var sb strings.Builder
	if d.Root != nil {
		serializeNode(&sb, d.Root)
	}
	return sb.String()
}

// NodeString returns the subtree rooted at n as XML text. Attribute nodes
// render as name="value"; text nodes as their escaped value.
func NodeString(n *Node) string {
	var sb strings.Builder
	serializeNode(&sb, n)
	return sb.String()
}

type stringWriter interface {
	WriteString(string) (int, error)
	WriteByte(byte) error
}

// serializeNode writes n's XML text. An element's children are walked
// twice, attributes first and then content, so nothing is gathered on the
// way: serializing allocates nothing beyond what w does.
func serializeNode(w stringWriter, n *Node) {
	switch n.Kind {
	case TextNode:
		escapeText(w, n.Value)
	case AttributeNode:
		w.WriteString(n.Name)
		w.WriteString(`="`)
		writeAttrValue(w, n)
		w.WriteByte('"')
	case ElementNode:
		w.WriteByte('<')
		w.WriteString(n.Name)
		content := false
		for _, c := range n.Children {
			if c.Kind == AttributeNode {
				w.WriteByte(' ')
				serializeNode(w, c)
			} else {
				content = true
			}
		}
		if !content {
			w.WriteString("/>")
			return
		}
		w.WriteByte('>')
		for _, c := range n.Children {
			if c.Kind != AttributeNode {
				serializeNode(w, c)
			}
		}
		w.WriteString("</")
		w.WriteString(n.Name)
		w.WriteByte('>')
	}
}

// writeAttrValue writes the escaped string value of n (Node.Text) without
// building it: escaping works byte by byte, so escaping the pieces in
// order equals escaping their concatenation.
func writeAttrValue(w stringWriter, n *Node) {
	if n.Kind == TextNode {
		escapeAttr(w, n.Value)
		return
	}
	for _, c := range n.Children {
		if c.Kind != AttributeNode {
			writeAttrValue(w, c)
		}
	}
}

// escaping is how escape and escapedSize treat each byte of a value.
type escaping struct {
	entity [256]string // a replaced byte's entity; "" for the rest
	grow   [256]uint8  // how many bytes its entity adds to a byte
	set    string      // the replaced bytes
}

// textEscaping and attrEscaping are escapeText's and escapeAttr's. A
// carriage return is replaced in both: a parser reads a raw one as a
// newline.
var textEscaping, attrEscaping = newEscaping("<>&\r"), newEscaping("<>&\r\"")

func newEscaping(set string) *escaping {
	e := &escaping{set: set}
	for _, b := range []byte(set) {
		e.entity[b] = map[byte]string{'<': "&lt;", '>': "&gt;", '&': "&amp;", '"': "&quot;", '\r': "&#13;"}[b]
		e.grow[b] = uint8(len(e.entity[b]) - 1)
	}
	return e
}

func escapeText(w stringWriter, s string) { escape(w, s, textEscaping) }

func escapeAttr(w stringWriter, s string) { escape(w, s, attrEscaping) }

// escape writes s with every byte esc replaces written as its entity,
// each run of bytes between two replaced ones in one write.
func escape(w stringWriter, s string, esc *escaping) {
	run := 0
	for i := 0; i < len(s); i++ {
		if e := esc.entity[s[i]]; e != "" {
			w.WriteString(s[run:i])
			w.WriteString(e)
			run = i + 1
		}
	}
	w.WriteString(s[run:])
}

// SerializedSize returns the length in bytes of the document's XML text.
// The cluster transmission-cost model (paper Section 5: result size divided
// by Gigabit Ethernet speed) uses this as the payload size. The length is
// computed, not written: it allocates nothing.
func SerializedSize(d *Document) int {
	if d.Root == nil {
		return 0
	}
	return NodeSerializedSize(d.Root)
}

// NodeSerializedSize returns the length in bytes of the subtree's XML
// text, exactly len(NodeString(n)), without producing the text.
func NodeSerializedSize(n *Node) int {
	switch n.Kind {
	case TextNode:
		return textSize(n.Value)
	case AttributeNode:
		return len(n.Name) + len(`=""`) + attrValueSize(n)
	case ElementNode:
		size := len("<") + len(n.Name)
		content := false
		for _, c := range n.Children {
			if c.Kind == AttributeNode {
				size += len(" ") + NodeSerializedSize(c)
			} else {
				content = true
				size += NodeSerializedSize(c)
			}
		}
		if !content {
			return size + len("/>")
		}
		return size + len(">") + len("</") + len(n.Name) + len(">")
	}
	return 0
}

// textSize is the length of escapeText's output for s.
func textSize(s string) int { return escapedSize(s, textEscaping) }

// longValue is the length from which escapedSize counts each replaced
// byte with strings.Count, which is vectorized, instead of walking the
// value's bytes once: on a 2-core x86-64 machine the walk measured a
// generated store Item's short values 36 % faster than the counts did,
// and an XBench article's paragraphs 4x slower.
const longValue = 64

// escapedSize is the length of escape's output for s.
func escapedSize(s string, esc *escaping) int {
	n := len(s)
	if len(s) >= longValue {
		for i := 0; i < len(esc.set); i++ {
			n += int(esc.grow[esc.set[i]]) * strings.Count(s, esc.set[i:i+1])
		}
		return n
	}
	for i := 0; i < len(s); i++ {
		n += int(esc.grow[s[i]])
	}
	return n
}

// attrValueSize is the length of writeAttrValue's output for n.
func attrValueSize(n *Node) int {
	if n.Kind == TextNode {
		return escapedSize(n.Value, attrEscaping)
	}
	size := 0
	for _, c := range n.Children {
		if c.Kind != AttributeNode {
			size += attrValueSize(c)
		}
	}
	return size
}
