package xmltree

import "testing"

// FuzzParseSerialize: whatever the parser accepts must serialize to text
// the parser accepts again, serializing that parse must give the same
// text (serialization is a fixed point), and SerializedSize must count
// exactly the bytes SerializeString writes.
func FuzzParseSerialize(f *testing.F) {
	f.Add(storeXML)
	f.Add(`<Item id="1"><Code>I1</Code><Description>a &lt;good&gt; &amp; "cheap" thing</Description></Item>`)
	f.Add(`<a b="x &quot;y&quot; &lt;z&gt;"><![CDATA[<raw> & text]]></a>`)
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseString("d", s)
		if err != nil {
			return
		}
		out := SerializeString(d)
		if n := SerializedSize(d); n != len(out) {
			t.Fatalf("SerializedSize = %d, SerializeString wrote %d bytes: %q", n, len(out), out)
		}
		again, err := ParseString("d", out)
		if err != nil {
			t.Fatalf("serialized text %q does not parse: %v", out, err)
		}
		if out2 := SerializeString(again); out2 != out {
			t.Fatalf("serialization is no fixed point:\n%q\n%q", out, out2)
		}
	})
}
