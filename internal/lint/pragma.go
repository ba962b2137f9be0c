package lint

import "strings"

// This file is the suite's directive parser. The one //lint: directive
// is the suppression pragma every analyzer honours:
//
//	//lint:allow <analyzer> <reason>   suppress a finding, with justification
//
// Parsing is tolerant of comment style: `//lint:allow`, `// lint:allow`
// and tab-indented forms (`//\tlint:allow`) are all accepted, as are
// /* block */ comments. The parser is a pure function over the comment
// text so it can be fuzzed (FuzzPragmaParse): malformed input must
// produce a diagnosis, never a panic.

// stripCommentMarkers removes the // or /* */ comment markers and any
// leading whitespace, returning the directive-candidate text. ok is
// false when text is not a comment at all.
func stripCommentMarkers(text string) (string, bool) {
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	default:
		return "", false
	}
	return strings.TrimLeft(text, " \t"), true
}

// parseAllowPragma parses a //lint: comment into its analyzer name and
// reason. isAllow reports whether the comment is a //lint: directive at
// all; problem is non-empty when it is one but is malformed (the caller
// reports it as a "pragma" finding). Any verb but allow — a bare
// "lint:", a typo like //lint:alow — is malformed, so it cannot
// silently disable a check.
func parseAllowPragma(text string) (analyzer, reason, problem string, isAllow bool) {
	body, isComment := stripCommentMarkers(text)
	if !isComment {
		return "", "", "", false
	}
	rest, hasPrefix := strings.CutPrefix(body, "lint:")
	if !hasPrefix {
		return "", "", "", false
	}
	fields := strings.Fields(rest)
	switch {
	case len(fields) == 0:
		return "", "", "malformed directive: want //lint:allow <analyzer> <reason>", true
	case fields[0] != "allow":
		return "", "", "unknown directive verb " + quote(fields[0]) + "; known: allow", true
	case len(fields) == 1:
		return "", "", "malformed pragma: want //lint:allow <analyzer> <reason>", true
	}
	analyzer = fields[1]
	if analyzerByName(analyzer) == nil {
		return "", "", "pragma names unknown analyzer " + quote(analyzer), true
	}
	if len(fields) < 3 {
		return "", "", "pragma for " + quote(analyzer) + " has no reason; a justification is mandatory", true
	}
	return analyzer, strings.Join(fields[2:], " "), "", true
}

// quote quotes a string for a diagnostic message without importing
// fmt into this hot parsing path.
func quote(s string) string { return "\"" + s + "\"" }
