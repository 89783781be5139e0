// Golden-fixture harness. Each analyzer keeps a miniature module under
// testdata/<name>/ that mirrors the real repository's layout (its own
// go.mod, internal/store, internal/crypto/..., cmd/... directories), with
// seeded true positives marked by trailing
//
//	// want "regexp"
//
// comments on the offending line, and the fixed form of each bug left
// unmarked to prove the analyzer stays silent on it. CheckFixture loads
// the fixture module, runs the analyzers (with the same suppression
// machinery as the real driver), and reports every mismatch in either
// direction: an expected finding that did not fire, or a finding no
// comment expects.
package vet

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/fsutil"
)

var wantRe = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// CheckFixture runs analyzers over the fixture module at dir and compares
// findings against the // want comments in its sources. It returns one
// human-readable problem string per mismatch; an empty slice means the
// fixture passed.
func CheckFixture(dir string, analyzers ...*Analyzer) ([]string, error) {
	m, err := Load(dir)
	if err != nil {
		return nil, err
	}
	var expects []*expectation
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			name := m.Fset.Position(f.Pos()).Filename
			data, err := fsutil.OS.ReadFile(name)
			if err != nil {
				return nil, err
			}
			for i, line := range strings.Split(string(data), "\n") {
				mm := wantRe.FindStringSubmatch(line)
				if mm == nil {
					continue
				}
				re, err := regexp.Compile(mm[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %w", name, i+1, mm[1], err)
				}
				expects = append(expects, &expectation{file: name, line: i + 1, re: re, raw: mm[1]})
			}
		}
	}
	findings := Apply(m, analyzers)

	var problems []string
	for _, f := range findings {
		matched := false
		for _, e := range expects {
			if e.file == f.Pos.Filename && e.line == f.Pos.Line && e.re.MatchString(f.Message) {
				e.hit = true
				matched = true
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding: %s", rel(dir, f)))
		}
	}
	for _, e := range expects {
		if !e.hit {
			problems = append(problems, fmt.Sprintf("%s:%d: expected finding matching %q did not fire",
				relPath(dir, e.file), e.line, e.raw))
		}
	}
	return problems, nil
}

func rel(dir string, f Finding) string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", relPath(dir, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

func relPath(dir, file string) string {
	if r, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return file
}
