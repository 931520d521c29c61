package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/fragmentation"
	"partix/internal/partix"
	"partix/internal/wire"
	"partix/internal/xbench"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deploy.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigAndScheme(t *testing.T) {
	path := writeConfig(t, `{
	  "collection": "items",
	  "nodes": [{"name": "n0", "addr": "127.0.0.1:1"}],
	  "fragments": [
	    {"name": "Fcd",  "kind": "horizontal", "predicate": "/Item/Section = \"CD\""},
	    {"name": "Fver", "kind": "vertical",   "path": "/Item/PictureList"},
	    {"name": "Fhyb", "kind": "hybrid",     "path": "/Store/Items", "predicate": "/Item/Section = \"CD\""}
	  ],
	  "mode": "FragMode1",
	  "placement": {"Fcd": "n0", "Fver": "n0", "Fhyb": "n0"}
	}`)
	cfg, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Collection != "items" || len(cfg.Nodes) != 1 {
		t.Fatalf("config = %+v", cfg)
	}
	scheme, mode, err := cfg.scheme()
	if err != nil {
		t.Fatal(err)
	}
	if mode != fragmentation.FragModeMD {
		t.Fatalf("mode = %v", mode)
	}
	if len(scheme.Fragments) != 3 {
		t.Fatalf("fragments = %d", len(scheme.Fragments))
	}
	kinds := []fragmentation.Kind{fragmentation.Horizontal, fragmentation.Vertical, fragmentation.Hybrid}
	for i, f := range scheme.Fragments {
		if f.Kind != kinds[i] {
			t.Errorf("fragment %d kind = %s", i, f.Kind)
		}
	}
}

func TestLoadConfigUnfragmented(t *testing.T) {
	path := writeConfig(t, `{
	  "collection": "items",
	  "nodes": [{"name": "n0", "addr": "x"}],
	  "placement": {"": "n0"}
	}`)
	cfg, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	scheme, mode, err := cfg.scheme()
	if err != nil {
		t.Fatal(err)
	}
	if scheme != nil || mode != fragmentation.FragModeSD {
		t.Fatalf("scheme=%v mode=%v", scheme, mode)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{not json`,
		"no collection": `{"nodes": [{"name": "n", "addr": "a"}]}`,
		"no nodes":      `{"collection": "c"}`,
	}
	for name, content := range cases {
		path := writeConfig(t, content)
		if _, err := loadConfig(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := loadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSchemeErrors(t *testing.T) {
	cases := map[string]string{
		"unknown kind": `{"collection": "c", "nodes": [{"name": "n", "addr": "a"}],
		  "fragments": [{"name": "F", "kind": "diagonal"}], "placement": {"F": "n"}}`,
		"bad predicate": `{"collection": "c", "nodes": [{"name": "n", "addr": "a"}],
		  "fragments": [{"name": "F", "kind": "horizontal", "predicate": "((("}], "placement": {"F": "n"}}`,
		"bad path": `{"collection": "c", "nodes": [{"name": "n", "addr": "a"}],
		  "fragments": [{"name": "F", "kind": "vertical", "path": "///"}], "placement": {"F": "n"}}`,
	}
	for name, content := range cases {
		cfg, err := loadConfig(writeConfig(t, content))
		if err != nil {
			t.Fatalf("%s: config rejected early: %v", name, err)
		}
		if _, _, err := cfg.scheme(); err == nil {
			t.Errorf("%s: scheme accepted", name)
		}
	}
}

func TestReadCollection(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.xml"), []byte("<Item><Code>A</Code></Item>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ignored.txt"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	col, err := readCollection("items", dir)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 1 || col.Docs[0].Name != "a" {
		t.Fatalf("collection = %+v", col.Docs)
	}
	if _, err := readCollection("items", t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := readCollection("items", filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestLoadConfigWithSchema(t *testing.T) {
	path := writeConfig(t, `{
	  "collection": "articles",
	  "nodes": [{"name": "n0", "addr": "x"}],
	  "fragments": [{"name": "Fp", "kind": "vertical", "path": "/article/prolog"}],
	  "placement": {"Fp": "n0"},
	  "schema": "article = prolog body\narticle @ id!\nprolog = title",
	  "rootType": "article"
	}`)
	cfg, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _, err := cfg.scheme()
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Schema == nil || scheme.RootType != "article" {
		t.Fatal("schema not attached")
	}
	if err := scheme.Validate(); err != nil {
		t.Fatal(err)
	}

	// A fragment path violating the schema is rejected at config time.
	bad := writeConfig(t, `{
	  "collection": "articles",
	  "nodes": [{"name": "n0", "addr": "x"}],
	  "fragments": [{"name": "Fp", "kind": "vertical", "path": "/article/nope"}],
	  "placement": {"Fp": "n0"},
	  "schema": "article = prolog\nprolog = title",
	  "rootType": "article"
	}`)
	cfgBad, err := loadConfig(bad)
	if err != nil {
		t.Fatal(err)
	}
	schemeBad, _, err := cfgBad.scheme()
	if err != nil {
		t.Fatal(err)
	}
	if err := schemeBad.Validate(); err == nil {
		t.Fatal("schema-violating fragment path accepted")
	}

	// Schema without rootType is rejected.
	noRoot := writeConfig(t, `{
	  "collection": "a",
	  "nodes": [{"name": "n0", "addr": "x"}],
	  "fragments": [{"name": "F", "kind": "vertical", "path": "/a/b"}],
	  "placement": {"F": "n0"},
	  "schema": "a = b"
	}`)
	cfgNR, err := loadConfig(noRoot)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cfgNR.scheme(); err == nil {
		t.Fatal("schema without rootType accepted")
	}
}

// explain prints a semi-join's fetches with what selects their documents:
// the round-1 prolog fetch its filter, the round-2 body fetch the names
// round 1 returned.
func TestWritePlanShowsSemiJoinRounds(t *testing.T) {
	sys := partix.NewSystem(cluster.NoNetwork)
	placement := map[string]string{}
	scheme := xbench.VerticalScheme("articles")
	for i, f := range scheme.Fragments {
		db, err := engine.Open(filepath.Join(t.TempDir(), f.Name+".db"), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		name := fmt.Sprintf("n%d", i)
		sys.AddNode(wire.NewLocalNode(name, db))
		placement[f.Name] = name
	}
	col := xbench.Generate(xbench.Config{Docs: 4, Seed: 1, Sections: 1, Paragraphs: 1})
	if err := sys.Publish(col, scheme, placement, partix.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Explain(`for $a in collection("articles")/article where $a/prolog/genre = "theory" return $a/body/section/title`)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	writePlan(&out, plan)
	for _, want := range []string{
		"strategy: reconstruct\n",
		`fetch F1papers @ n0 `,
		` keep={body{section{title*}}} where=for $a in collection("articles::F1papers")/article where ($a/prolog/genre = "theory") return $a (reconstruction)`,
		`fetch F2papers @ n1 `,
		` keep={body{section{title*}}} names←round 1 (reconstruction)`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explain output lacks %q:\n%s", want, out.String())
		}
	}
}
