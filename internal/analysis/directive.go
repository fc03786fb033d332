package analysis

import (
	"go/token"
	"regexp"
	"strings"
)

// Suppression directives. A comment of the form
//
//	//spio:allow <analyzer> -- <reason>
//
// on the flagged line, or on the line directly above it, suppresses
// that analyzer's findings there. The reason is mandatory: an allow
// without a justification is itself reported (analyzer "directive"),
// as is an allow naming an unknown analyzer — a typo must not silently
// stop suppressing. Suppressed findings stay in the result set, marked
// Suppressed, so the summary can count and list them; only unsuppressed
// findings affect the exit code.

// directiveAnalyzer is the pseudo-analyzer name malformed directives
// are reported under.
const directiveAnalyzer = "directive"

// directiveRe matches the directive comment body after "//".
var directiveRe = regexp.MustCompile(`^spio:allow(?:\s+(\S+))?(?:\s+--\s*(.*))?$`)

// directive is one parsed, well-formed //spio:allow comment.
type directive struct {
	analyzer string
	reason   string
	used     bool
	pos      token.Pos
}

// directiveKey addresses the lines a directive covers.
type directiveKey struct {
	file string
	line int
}

// applyDirectives parses every //spio:allow comment in the program,
// marks the diagnostics they cover as suppressed, and appends findings
// for malformed or unused directives.
func applyDirectives(prog *Program, analyzers []*Analyzer, diags *[]Diagnostic) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	active := make(map[string]bool)
	for _, a := range analyzers {
		active[a.Name] = true
	}

	byLine := make(map[directiveKey][]*directive)
	report := prog.reporter(directiveAnalyzer, diags)

	var all []*directive
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text, ok := strings.CutPrefix(c.Text, "//")
					if !ok {
						continue
					}
					m := directiveRe.FindStringSubmatch(text)
					if m == nil {
						continue
					}
					name, reason := m[1], strings.TrimSpace(m[2])
					switch {
					case name == "":
						report(c.Pos(), "spio:allow directive names no analyzer: want //spio:allow <analyzer> -- <reason>")
						continue
					case !known[name]:
						report(c.Pos(), "spio:allow directive names unknown analyzer %q", name)
						continue
					case reason == "":
						report(c.Pos(), "spio:allow %s directive is missing its reason: want //spio:allow %s -- <reason>", name, name)
						continue
					}
					d := &directive{analyzer: name, reason: reason, pos: c.Pos()}
					all = append(all, d)
					p := prog.Fset.Position(c.Pos())
					// The directive covers its own line and the next one
					// (the "directive on the line above" form).
					byLine[directiveKey{p.Filename, p.Line}] = append(byLine[directiveKey{p.Filename, p.Line}], d)
					byLine[directiveKey{p.Filename, p.Line + 1}] = append(byLine[directiveKey{p.Filename, p.Line + 1}], d)
					if !active[name] {
						// The named analyzer is not in this run's set; the
						// directive cannot match, and must not be reported
						// as unused either.
						d.used = true
					}
				}
			}
		}
	}
	if len(all) == 0 {
		return
	}

	for i := range *diags {
		d := &(*diags)[i]
		for _, dir := range byLine[directiveKey{d.Position.Filename, d.Position.Line}] {
			if dir.analyzer != d.Analyzer {
				continue
			}
			d.Suppressed = true
			d.SuppressReason = dir.reason
			dir.used = true
			break
		}
	}

	// An allow that suppresses nothing is stale: the hazard it excused
	// is gone, or the directive never matched. Surfacing it keeps the
	// suppression inventory honest.
	for _, dir := range all {
		if !dir.used {
			report(dir.pos, "spio:allow %s directive suppresses no finding: remove it", dir.analyzer)
		}
	}
}
