package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealFigures keeps the docs and the figures table in step:
// every "-fig NAME" in README.md, ARCHITECTURE.md and the verify skill must
// name an entry of figures (or all).
func TestDocsNameRealFigures(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, f := range figures {
		known[f.name] = true
	}
	// A backquoted command may wrap between -fig and its argument.
	figArg := regexp.MustCompile(`-fig[\s=]+([a-z0-9]+)`)
	named := 0
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range figArg.FindAllSubmatchIndex(text, -1) {
			named++
			if name := string(text[m[2]:m[3]]); !known[name] {
				line := 1 + strings.Count(string(text[:m[0]]), "\n")
				t.Errorf("%s:%d names -fig %s, which cryptdb-bench does not define", doc, line, name)
			}
		}
	}
	if named < 10 {
		t.Fatalf("found only %d -fig mentions in the docs; the pattern no longer matches them", named)
	}
}
