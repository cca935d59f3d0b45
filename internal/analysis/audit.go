package analysis

import (
	"fmt"
	"strings"
)

// AllowEntry is one well-formed //tgvet:allow annotation with its
// mandatory reason, for the suppression audit (`make lint-fix-audit`):
// every escape hatch in the tree stays reviewable in one listing.
type AllowEntry struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

func (e AllowEntry) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", e.File, e.Line, e.Analyzer, e.Reason)
}

// CollectAllows scans pkg's comments for well-formed //tgvet:allow
// annotations, in source order. Malformed annotations are not listed —
// they are already hard diagnostics from the regular run.
func CollectAllows(pkg *Package) []AllowEntry {
	var entries []AllowEntry
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := allowRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" || !analyzerNames[m[1]] {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				entries = append(entries, AllowEntry{
					File:     filename,
					Line:     pos.Line,
					Analyzer: m[1],
					Reason:   strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return entries
}
