package lint

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzPragmaParse drives the directive parser with arbitrary comment
// text: it must never panic, and its classifications must be internally
// consistent — an accepted allow pragma has an analyzer and a reason
// and no problem, a diagnosed one has a problem and nothing else, and
// non-comments are never directives. The parser sits in front of every
// analyzer (a malformed pragma must not crash the driver), which is why
// it is a pure function over the comment text.
func FuzzPragmaParse(f *testing.F) {
	f.Add("//lint:allow clockcheck time math on wall-clock stamps")
	f.Add("// lint:allow errdrop fixture")
	f.Add("//\tlint:allow leakcheck tab indented")
	f.Add("/* lint:allow lockcheck block comment */")
	f.Add("//lint:allow")
	f.Add("//lint:allow nosuchanalyzer reason")
	f.Add("//lint:allow printcheck")
	f.Add("//lint:alow printcheck typo verb")
	f.Add("//lint:")
	f.Add("//lint:hotpath")
	f.Add("//lint:coldpath amortized window roll")
	f.Add("//lint:coldpath")
	f.Add("// ordinary comment")
	f.Add("not a comment at all")
	f.Add("//")
	f.Add("/*")
	f.Add("//lint:allow  clockcheck   spaced   out   reason")
	f.Add("//lint:allow clockcheck nbsp")
	f.Fuzz(func(t *testing.T, text string) {
		analyzer, reason, problem, isAllow := parseAllowPragma(text)
		if !isAllow {
			if analyzer != "" || reason != "" || problem != "" {
				t.Fatalf("non-pragma %q returned data: %q %q %q", text, analyzer, reason, problem)
			}
		} else if problem != "" {
			if analyzer != "" || reason != "" {
				t.Fatalf("diagnosed pragma %q also returned data: %q %q", text, analyzer, reason)
			}
		} else {
			if analyzerByName(analyzer) == nil {
				t.Fatalf("accepted pragma %q names unknown analyzer %q", text, analyzer)
			}
			if reason == "" {
				t.Fatalf("accepted pragma %q with empty reason", text)
			}
		}

		// Directive-level invariants.
		d, verb, verbOK, ok := parseDirective(text)
		if ok && !strings.HasPrefix(text, "//") && !strings.HasPrefix(text, "/*") {
			t.Fatalf("non-comment %q parsed as a directive", text)
		}
		if verbOK {
			if _, known := directiveVerbs[verb]; !known {
				t.Fatalf("verbOK with unknown verb %q", verb)
			}
			for _, arg := range d.args {
				if arg == "" {
					t.Fatalf("directive %q produced empty arg", text)
				}
			}
		}

		// Annotation parsing must tolerate the same arbitrary input.
		ann := parseFuncAnnotations([]string{text})
		if ann.coldpath && !verbOK {
			t.Fatalf("annotation %q accepted without a valid verb", text)
		}
		_ = utf8.ValidString(text) // any byte soup is in scope
	})
}
