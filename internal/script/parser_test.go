package script

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// nestedParens is `var x = ((…(1)…));` with depth parentheses.
func nestedParens(depth int) string {
	return "var x = " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + ";"
}

// TestParseNestingLimit: a script nested past maxNesting is a SyntaxError
// returned at once — unbounded, 3 M parentheses (6 MB, under the Hive's
// 32 MiB body cap) overflow the stack, a fatal error — while ordinary
// nesting still parses and runs.
func TestParseNestingLimit(t *testing.T) {
	src := nestedParens(3_000_000)
	start := time.Now()
	_, err := Parse(src)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("3 M nested parentheses took %v to reject, want under 100ms", elapsed)
	}
	if !isNestingError(err) {
		t.Fatalf("3 M nested parentheses: err = %v, want the nesting SyntaxError", err)
	}

	in := NewInterp()
	if err := in.RunSource(nestedParens(200)); err != nil {
		t.Fatalf("200 nested parentheses: %v", err)
	}
	if v, _ := in.Lookup("x"); v.Num() != 1 {
		t.Errorf("200 nested parentheses evaluate to %v, want 1", v.Num())
	}

	// Every way the parser recurses, as head + n×open + mid + n×close +
	// tail, at a depth that fits and one that does not.
	shapes := []struct{ name, head, open, mid, close, tail string }{
		{"blocks", "", "{", "", "}", ""},
		{"else-if", "if (1) {}", " else if (1) {}", "", "", ""},
		{"unary", "var x = ", "!-", "1", "", ";"},
		{"assignments", "var x; x", " = x", "", "", ";"},
		{"ternaries", "var x = ", "1 ? ", "1", " : 1", ";"},
		{"calls", "var f = function (a) { return a; }; ", "f(", "1", ")", ";"},
		{"arrays", "var x = ", "[", "", "]", ";"},
		{"objects", "var x = ", "{a: ", "1", "}", ";"},
		{"functions", "", "function f() {", "", "}", ""},
	}
	for _, s := range shapes {
		src := func(n int) string {
			return s.head + strings.Repeat(s.open, n) + s.mid + strings.Repeat(s.close, n) + s.tail
		}
		if _, err := Parse(src(50)); err != nil {
			t.Errorf("%s, 50 deep: %v", s.name, err)
		}
		if _, err := Parse(src(100_000)); !isNestingError(err) {
			t.Errorf("%s, 100 000 deep: err = %v, want the nesting SyntaxError", s.name, err)
		}
	}
}

func isNestingError(err error) bool {
	var serr *SyntaxError
	return errors.As(err, &serr) && strings.Contains(serr.Msg, "nests deeper")
}

// TestParseLexErrorWins: lexing is lazy, but a lexical error still takes
// precedence over the parse error it causes.
func TestParseLexErrorWins(t *testing.T) {
	for src, want := range map[string]string{
		"var x = (1 + @":   "unexpected character",
		"var x = 1; @":     "unexpected character",
		"function \"abc":   "unterminated string",
		"var s = 'a\\q';":  "unknown escape",
		"var x = 1 /* end": "unterminated block comment",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
}

// FuzzParse: whatever the bytes, Parse returns a program or a SyntaxError,
// and never panics or overflows the stack.
func FuzzParse(f *testing.F) {
	f.Add(nestedParens(3 * maxNesting)) // the deep script's shape; 3 M deep would make every mutation copy 6 MB
	f.Add(nestedParens(200))
	f.Add("var f = function (a) { if (a > 1) { return a * f(a - 1); } else { return 1; } }; var r = [f(5), {k: 'v'}].length;")
	f.Add("for (var i = 0; i < 3; i += 1) { while (i) { break; } } // c\n/* d */")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Parse = %v, %v: want exactly one of a program and an error", prog, err)
		}
		var serr *SyntaxError
		if err != nil && !errors.As(err, &serr) {
			t.Fatalf("Parse error %v is not a SyntaxError", err)
		}
	})
}
