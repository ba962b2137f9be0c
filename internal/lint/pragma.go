package lint

import "strings"

// This file is the suite's directive parser: the //lint:... comment
// vocabulary shared by every analyzer.
//
//	//lint:allow <analyzer> <reason>   suppress a finding, with justification
//	//lint:hotpath                     function (and its static callees) must not allocate
//	//lint:coldpath <reason>           deliberate slow path; hotpathcheck stops here
//
// Parsing is tolerant of comment style: `//lint:allow`, `// lint:allow`
// and tab-indented forms (`//\tlint:allow`) are all accepted, as are
// /* block */ comments. The parser is a pure function over the comment
// text so it can be fuzzed (FuzzPragmaParse): malformed input must
// produce a diagnosis, never a panic.

// directiveKind names one //lint: directive verb.
type directiveKind int

const (
	directiveAllow directiveKind = iota
	directiveHotpath
	directiveColdpath
)

// directive is one parsed //lint:... comment.
type directive struct {
	kind directiveKind
	// args is the whitespace-split remainder after the verb: for allow,
	// args[0] is the analyzer name and the rest is the reason; for
	// coldpath the whole of args is the reason.
	args []string
}

// directiveVerbs maps the verb spelled after "lint:" to its kind.
var directiveVerbs = map[string]directiveKind{
	"allow":    directiveAllow,
	"hotpath":  directiveHotpath,
	"coldpath": directiveColdpath,
}

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

// parseDirective parses one comment's text. ok reports whether the
// comment is a //lint: directive at all (possibly a malformed one);
// when ok, d.kind is valid only if verbOK is also true — otherwise the
// verb after "lint:" is unknown and verb carries its spelling.
func parseDirective(text string) (d directive, verb string, verbOK, ok bool) {
	body, isComment := stripCommentMarkers(text)
	if !isComment {
		return directive{}, "", false, false
	}
	rest, hasPrefix := strings.CutPrefix(body, "lint:")
	if !hasPrefix {
		return directive{}, "", false, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return directive{}, "", false, true
	}
	verb = fields[0]
	kind, known := directiveVerbs[verb]
	if !known {
		return directive{}, verb, false, true
	}
	return directive{kind: kind, args: fields[1:]}, verb, true, true
}

// parseAllowPragma parses a //lint:allow comment into its analyzer name
// and reason. isAllow reports whether the comment is an allow pragma at
// all; problem is non-empty when it is one but is malformed (the caller
// reports it as a "pragma" finding).
func parseAllowPragma(text string) (analyzer, reason, problem string, isAllow bool) {
	d, verb, verbOK, ok := parseDirective(text)
	if !ok {
		return "", "", "", false
	}
	if !verbOK {
		// Unknown verbs (including a bare "lint:") are reported by
		// collectAllowances so a typo like //lint:alow cannot silently
		// disable a check; other known verbs are not allow pragmas.
		if verb == "" {
			return "", "", "malformed directive: want //lint:<verb>, e.g. //lint:allow <analyzer> <reason>", true
		}
		return "", "", "unknown directive verb " + quote(verb) + "; known: allow, hotpath, coldpath", true
	}
	if d.kind != directiveAllow {
		return "", "", "", false
	}
	if len(d.args) == 0 {
		return "", "", "malformed pragma: want //lint:allow <analyzer> <reason>", true
	}
	analyzer = d.args[0]
	if analyzerByName(analyzer) == nil {
		return "", "", "pragma names unknown analyzer " + quote(analyzer), true
	}
	if len(d.args) < 2 {
		return "", "", "pragma for " + quote(analyzer) + " has no reason; a justification is mandatory", true
	}
	return analyzer, strings.Join(d.args[1:], " "), "", true
}

// quote quotes a string for a diagnostic message without importing
// fmt into this hot parsing path.
func quote(s string) string { return "\"" + s + "\"" }

// funcAnnotations extracts the hotpath/coldpath markers from a
// function's doc comment text lines. coldReason is the coldpath
// justification ("" when absent — itself a finding, validated by
// hotpathcheck).
type funcAnnotations struct {
	hotpath     bool
	coldpath    bool
	coldReason  string
	coldpathPos int // index into the doc list, for diagnostics
}

// parseFuncAnnotations scans a doc comment's lines for hotpath/coldpath
// directives.
func parseFuncAnnotations(lines []string) funcAnnotations {
	var a funcAnnotations
	for i, text := range lines {
		d, _, verbOK, ok := parseDirective(text)
		if !ok || !verbOK {
			continue
		}
		switch d.kind {
		case directiveHotpath:
			a.hotpath = true
		case directiveColdpath:
			a.coldpath = true
			a.coldReason = strings.Join(d.args, " ")
			a.coldpathPos = i
		}
	}
	return a
}
