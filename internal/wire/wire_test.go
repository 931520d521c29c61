package wire

import (
	"errors"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// startServer runs a server over a loopback listener and returns a
// connected client.
func startServer(t *testing.T) *Client {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), "node.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	client, err := Dial("remote0", l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestClientImplementsDriver(t *testing.T) {
	var _ cluster.Driver = (*Client)(nil)
}

func TestRemoteStoreAndQuery(t *testing.T) {
	c := startServer(t)
	if c.Name() != "remote0" {
		t.Fatalf("name = %q", c.Name())
	}
	if err := c.CreateCollection("items"); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`<Item><Code>I1</Code><Section>CD</Section><Description>a good disc</Description></Item>`,
		`<Item><Code>I2</Code><Section>DVD</Section><Description>a movie</Description></Item>`,
	}
	for i, xml := range docs {
		doc := xmltree.MustParseString([]string{"i1", "i2"}[i], xml)
		if err := c.StoreDocument("items", doc); err != nil {
			t.Fatal(err)
		}
	}
	if !c.HasCollection("items") || c.HasCollection("ghost") {
		t.Fatal("HasCollection wrong")
	}
	items, err := c.ExecuteQuery(`for $i in collection("items")/Item where $i/Section = "CD" return $i/Code`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || xquery.ItemString(items[0]) != "I1" {
		t.Fatalf("items = %v", items)
	}
	st, err := c.CollectionStats("items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Documents != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoteFetchCollection(t *testing.T) {
	c := startServer(t)
	orig := xmltree.NewCollection("col",
		xmltree.MustParseString("a", `<X id="1"><Y>one</Y></X>`),
		xmltree.MustParseString("b", `<X id="2"><Y>two</Y></X>`),
	)
	if err := c.CreateCollection("col"); err != nil {
		t.Fatal(err)
	}
	for _, d := range orig.Docs {
		if err := c.StoreDocument("col", d); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.FetchCollection("col")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCollections(orig, got) {
		t.Fatal("fetched collection differs")
	}
	// Node IDs survive the round trip (required for reconstruction joins).
	if got.Doc("a").Root.ID != orig.Doc("a").Root.ID {
		t.Fatal("IDs lost over the wire")
	}
}

// A projected fetch ships each document cut down at the node, IDs intact.
func TestRemoteProjectedFetch(t *testing.T) {
	c := startServer(t)
	if err := c.CreateCollection("col"); err != nil {
		t.Fatal(err)
	}
	orig := xmltree.MustParseString("a", `<X id="1"><Y>one</Y><Z><W>w</W><V>v</V></Z></X>`)
	if err := c.StoreDocument("col", orig); err != nil {
		t.Fatal(err)
	}
	keep, err := xmltree.ParseProjection("{Z{V*}}")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch("col", cluster.FetchSpec{Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	d := got.Doc("a")
	if s := xmltree.SerializeString(d); s != `<X id="1"><Z><V>v</V></Z></X>` {
		t.Fatalf("projected document = %s", s)
	}
	if v := d.Root.Child("Z").Child("V"); v.ID != orig.Root.Child("Z").Child("V").ID {
		t.Fatal("IDs lost in the projected fetch")
	}
}

// A Keep the node cannot parse fails that fetch with FrameErr — a node
// error, not a transport failure — and the one pooled connection serves
// the next request.
func TestMalformedKeepAnswersFrameErr(t *testing.T) {
	_, addr := startServerOn(t, newNodeDB(t, 3), "127.0.0.1:0", ServerOptions{})
	c := dialStream(t, addr, ClientOptions{PoolSize: 1})
	dials := c.Stats().Dials
	_, err := c.stream(&Request{Op: OpFetchStream, Collection: "c", Keep: "{b,a}"},
		func(*Frame) error { return nil }, nil)
	var ne *NodeError
	if !errors.As(err, &ne) || !strings.Contains(ne.Msg, "projection") {
		t.Fatalf("malformed keep: err = %v, want a node error about the projection", err)
	}
	got, err := c.FetchCollection("c")
	if err != nil || got.Len() != 3 {
		t.Fatalf("fetch after the error: %v, %v", got, err)
	}
	if st := c.Stats(); st.Dials != dials || st.TransportErrors != 0 || st.NodeErrors != 1 {
		t.Fatalf("stats = %+v, want the connection reused after one node error", st)
	}
}

// Both drivers honour a fetch spec alike: names select exactly those
// documents, in name order, skipping unknown ones; an empty list selects
// none and only nil selects all; a filter keeps the documents it matches,
// combined with names and a projection; a filter over another collection
// fails the fetch.
func TestFetchSpecSelectsDocuments(t *testing.T) {
	db := newNodeDB(t, 6)
	_, addr := startServerOn(t, db, "127.0.0.1:0", ServerOptions{})
	drivers := []cluster.Driver{cluster.NewLocalNode("local", db), dialStream(t, addr, ClientOptions{})}
	const odd = `for $i in collection("c")/Item where $i/Code = "I3" or $i/Code = "I5" return $i`
	cases := []struct {
		name string
		spec cluster.FetchSpec
		want []string // document names, in order
		doc  string   // the first document's XML, when set
	}{
		{"all", cluster.FetchSpec{}, []string{"d00", "d01", "d02", "d03", "d04", "d05"}, ""},
		{"names", cluster.FetchSpec{Names: []string{"d04", "zz", "d01", "d02"}}, []string{"d01", "d02", "d04"}, ""},
		{"no names", cluster.FetchSpec{Names: []string{}}, nil, ""},
		{"filter", cluster.FetchSpec{Where: odd}, []string{"d03", "d05"}, "<Item><Code>I3</Code></Item>"},
		{"filter and names", cluster.FetchSpec{Where: odd, Names: []string{"d03", "d04"}}, []string{"d03"}, ""},
		{"filter and keep", cluster.FetchSpec{Where: odd, Keep: &xmltree.Projection{}}, []string{"d03", "d05"}, "<Item/>"},
	}
	for _, d := range drivers {
		for _, tc := range cases {
			col, err := d.Fetch("c", tc.spec)
			if err != nil {
				t.Fatalf("%s %s: %v", d.Name(), tc.name, err)
			}
			var got []string
			for _, doc := range col.Docs {
				got = append(got, doc.Name)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s %s: fetched %v, want %v", d.Name(), tc.name, got, tc.want)
			}
			if tc.doc != "" && len(col.Docs) > 0 && xmltree.SerializeString(col.Docs[0]) != tc.doc {
				t.Errorf("%s %s: first document %s, want %s", d.Name(), tc.name, xmltree.SerializeString(col.Docs[0]), tc.doc)
			}
		}
		other := `for $i in collection("elsewhere")/Item where $i/Code = "I3" return $i`
		if _, err := d.Fetch("c", cluster.FetchSpec{Where: other}); err == nil {
			t.Errorf("%s: a filter over another collection fetched", d.Name())
		}
	}
}

// A Where the node cannot parse fails that fetch with FrameErr, like a
// malformed Keep, and the one pooled connection serves the next request.
func TestMalformedWhereAnswersFrameErr(t *testing.T) {
	_, addr := startServerOn(t, newNodeDB(t, 3), "127.0.0.1:0", ServerOptions{})
	c := dialStream(t, addr, ClientOptions{PoolSize: 1})
	dials := c.Stats().Dials
	_, err := c.Fetch("c", cluster.FetchSpec{Where: `for $i in collection("c")/Item where`})
	var ne *NodeError
	if !errors.As(err, &ne) || !strings.Contains(ne.Msg, "fetch filter") {
		t.Fatalf("malformed where: err = %v, want a node error about the fetch filter", err)
	}
	got, err := c.FetchCollection("c")
	if err != nil || got.Len() != 3 {
		t.Fatalf("fetch after the error: %v, %v", got, err)
	}
	if st := c.Stats(); st.Dials != dials || st.TransportErrors != 0 || st.NodeErrors != 1 {
		t.Fatalf("stats = %+v, want the connection reused after one node error", st)
	}
}

func TestRemoteErrors(t *testing.T) {
	c := startServer(t)
	if _, err := c.ExecuteQuery(`for $x in collection("ghost")/X return $x`); err == nil {
		t.Fatal("remote error not propagated")
	}
	if _, err := c.ExecuteQuery(`syntax error here`); err == nil {
		t.Fatal("remote parse error not propagated")
	}
	if _, err := c.CollectionStats("ghost"); err == nil {
		t.Fatal("stats of ghost collection")
	}
}

func TestRemoteQueryResultKinds(t *testing.T) {
	c := startServer(t)
	if err := c.CreateCollection("items"); err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustParseString("i1", `<Item><Code>I1</Code></Item>`)
	if err := c.StoreDocument("items", doc); err != nil {
		t.Fatal(err)
	}
	items, err := c.ExecuteQuery(`(count(collection("items")/Item), "text", 1 = 1, collection("items")/Item/Code)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("items = %d", len(items))
	}
	if _, ok := items[0].(float64); !ok {
		t.Fatalf("item0 %T", items[0])
	}
	if s, ok := items[1].(string); !ok || s != "text" {
		t.Fatalf("item1 %v", items[1])
	}
	if b, ok := items[2].(bool); !ok || !b {
		t.Fatalf("item2 %v", items[2])
	}
	if n, ok := xquery.NodeOf(items[3]); !ok || n.Text() != "I1" {
		t.Fatalf("item3 %v", items[3])
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("x", "127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestClosedClient(t *testing.T) {
	c := startServer(t)
	c.Close()
	if _, err := c.ExecuteQuery(`collection("x")/a`); err == nil {
		t.Fatal("closed client executed query")
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestConcurrentClients(t *testing.T) {
	c := startServer(t)
	if err := c.CreateCollection("items"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 10; i++ {
				_, err := c.ExecuteQuery(`count(collection("items")/Item)`)
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEncodeSeqRejectsUnknown(t *testing.T) {
	if _, err := EncodeSeq(xquery.Seq{struct{}{}}); err == nil {
		t.Fatal("unknown item encoded")
	}
	if _, err := DecodeSeq([]Item{{Kind: 99}}); err == nil {
		t.Fatal("unknown kind decoded")
	}
}
