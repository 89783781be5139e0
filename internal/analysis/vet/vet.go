// Package vet is the static-analysis framework behind cryptdb-vet.
//
// CryptDB's security and durability arguments are invariants, not
// features: plaintext and key material never travel below the proxy's
// encryption chokepoints, locks are acquired in one global order and
// never held across an fsync on the commit hot path, and no error from a
// Sync/Close on a durability path is ever dropped. None of these are
// expressible in Go's type system, so after five PRs they were enforced
// by reviewer vigilance alone. This package gives them a mechanical
// checker: a small loader that parses and type-checks every package in
// the module using only the standard library (go/parser + go/types, with
// the source importer for stdlib dependencies — no golang.org/x/tools,
// so it builds offline), an Analyzer interface the four suites implement
// (see the plaintextflow, lockorder, durabilityerr and cryptohygiene
// subpackages), and the justification-annotation machinery that lets a
// deliberate exception be suppressed — but only with a non-empty reason.
//
// Suppression annotations:
//
//	//cryptdb:sink-ok <reason>            allowlists a plaintextflow sink
//	//cryptdb:vet-ok <analyzer>: <reason> allowlists any analyzer's finding
//
// A trailing annotation suppresses findings on its own line; an
// annotation on a line of its own suppresses the line directly below it.
// An annotation with an empty reason is itself a finding: the whole point
// is that every exception carries its justification in the source.
package vet

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"repro/internal/fsutil"
)

// Finding is one diagnostic: a position, the analyzer that produced it,
// and a message.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker. Run receives the fully loaded and
// type-checked module and returns raw findings; the framework applies
// suppression annotations afterwards.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// AnnotationAnalyzer is the pseudo-analyzer name attributed to findings
// about the annotations themselves (empty justifications).
const AnnotationAnalyzer = "annotation"

var (
	sinkOkRe = regexp.MustCompile(`//cryptdb:sink-ok(.*)$`)
	vetOkRe  = regexp.MustCompile(`//cryptdb:vet-ok\s+([a-z]+)\s*:(.*)$`)
)

// suppression is one justification annotation, resolved to the source
// line it covers.
type suppression struct {
	file     string
	line     int
	analyzer string // "" for sink-ok (plaintextflow)
	reason   string
	pos      token.Position // of the annotation itself
}

// collectSuppressions scans every comment in the module for justification
// annotations. A comment group that shares a line with code covers that
// line; a standalone comment group covers the line after its last line.
func collectSuppressions(m *Module) ([]suppression, []Finding) {
	var sups []suppression
	var bad []Finding
	srcLines := make(map[string][]string)
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := m.Fset.Position(c.Slash)
					text := c.Text
					var analyzer, reason string
					if mm := vetOkRe.FindStringSubmatch(text); mm != nil {
						analyzer, reason = mm[1], strings.TrimSpace(mm[2])
					} else if mm := sinkOkRe.FindStringSubmatch(text); mm != nil {
						analyzer, reason = "", strings.TrimSpace(mm[1])
					} else {
						continue
					}
					if reason == "" {
						bad = append(bad, Finding{
							Pos:      pos,
							Analyzer: AnnotationAnalyzer,
							Message:  "suppression annotation has no justification — state why this exception is sound",
						})
						continue
					}
					line := pos.Line
					if standalone(srcLines, pos) {
						line = endLine(m.Fset, c.End()) + 1
					}
					sups = append(sups, suppression{
						file: pos.Filename, line: line,
						analyzer: analyzer, reason: reason, pos: pos,
					})
				}
			}
		}
	}
	return sups, bad
}

// standalone reports whether the comment at pos has only whitespace
// before it on its source line — a comment on a line of its own, which
// covers the line below, as opposed to a trailing comment covering its
// own line.
func standalone(cache map[string][]string, pos token.Position) bool {
	lines, ok := cache[pos.Filename]
	if !ok {
		if data, err := fsutil.OS.ReadFile(pos.Filename); err == nil {
			lines = strings.Split(string(data), "\n")
		}
		cache[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) {
		return pos.Column == 1
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 <= len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}

func endLine(fset *token.FileSet, end token.Pos) int {
	return fset.Position(end).Line
}

// Apply runs analyzers over the module and applies suppression
// annotations: a finding on a covered line from the matching analyzer is
// dropped; annotations without a justification become findings
// themselves. Findings come back sorted by position.
func Apply(m *Module, analyzers []*Analyzer) []Finding {
	sups, bad := collectSuppressions(m)
	type key struct {
		file string
		line int
	}
	byLine := make(map[key][]suppression)
	for _, s := range sups {
		byLine[key{s.file, s.line}] = append(byLine[key{s.file, s.line}], s)
	}
	suppressed := func(f Finding) bool {
		for _, s := range byLine[key{f.Pos.Filename, f.Pos.Line}] {
			if s.analyzer == f.Analyzer {
				return true
			}
			// sink-ok is shorthand for the plaintext-confinement analyzer.
			if s.analyzer == "" && f.Analyzer == "plaintextflow" {
				return true
			}
		}
		return false
	}
	out := append([]Finding(nil), bad...)
	for _, a := range analyzers {
		for _, f := range a.Run(m) {
			if f.Analyzer == "" {
				f.Analyzer = a.Name
			}
			if !suppressed(f) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out
}

// PathContains reports whether seg appears as a slash-separated segment
// run inside path ("internal/store" matches "repro/internal/store" and
// "repro/internal/store/sharded"). Matching by segment suffix rather than
// full import path keeps the analyzers honest over both the real module
// and the fixture modules in testdata, which mirror the layout under a
// different module name.
func PathContains(path, seg string) bool {
	return strings.Contains("/"+path+"/", "/"+seg+"/")
}
