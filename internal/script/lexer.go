package script

import (
	"fmt"
	"strings"
	"unicode"
)

// SyntaxError reports a lexical or parse failure with its source line.
type SyntaxError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("script: line %d: %s", e.Line, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func (l *lexer) errorf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekByteAt(1) == '*':
			l.pos += 2
			for {
				if l.pos >= len(l.src) {
					return l.errorf("unterminated block comment")
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				if l.src[l.pos] == '*' && l.peekByteAt(1) == '/' {
					l.pos += 2
					break
				}
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line := l.line
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Line: line}, nil
	}
	c := l.src[l.pos]

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Line: line}, nil
		}
		return Token{Kind: IDENT, Text: text, Line: line}, nil

	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
			l.pos++
		}
		if l.peekByte() == '.' && l.peekByteAt(1) >= '0' && l.peekByteAt(1) <= '9' {
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		}
		if b := l.peekByte(); b == 'e' || b == 'E' {
			save := l.pos
			l.pos++
			if b := l.peekByte(); b == '+' || b == '-' {
				l.pos++
			}
			if b := l.peekByte(); b >= '0' && b <= '9' {
				for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
					l.pos++
				}
			} else {
				l.pos = save
			}
		}
		return Token{Kind: NUMBER, Text: l.src[start:l.pos], Line: line}, nil

	case c == '"' || c == '\'':
		quote := c
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errorf("unterminated string")
			}
			ch := l.src[l.pos]
			if ch == '\n' {
				return Token{}, l.errorf("newline in string")
			}
			if ch == quote {
				l.pos++
				return Token{Kind: STRING, Text: sb.String(), Line: line}, nil
			}
			if ch == '\\' {
				l.pos++
				if l.pos >= len(l.src) {
					return Token{}, l.errorf("unterminated escape")
				}
				switch l.src[l.pos] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				case '\\':
					sb.WriteByte('\\')
				case '\'':
					sb.WriteByte('\'')
				case '"':
					sb.WriteByte('"')
				default:
					return Token{}, l.errorf("unknown escape \\%c", l.src[l.pos])
				}
				l.pos++
				continue
			}
			sb.WriteByte(ch)
			l.pos++
		}
	}

	two := func(kind Kind, text string) (Token, error) {
		l.pos += 2
		return Token{Kind: kind, Text: text, Line: line}, nil
	}
	one := func(kind Kind) (Token, error) {
		l.pos++
		return Token{Kind: kind, Text: string(c), Line: line}, nil
	}
	switch c {
	case '(':
		return one(LPAREN)
	case ')':
		return one(RPAREN)
	case '{':
		return one(LBRACE)
	case '}':
		return one(RBRACE)
	case '[':
		return one(LBRACKET)
	case ']':
		return one(RBRACKET)
	case ',':
		return one(COMMA)
	case '.':
		return one(DOT)
	case ';':
		return one(SEMI)
	case ':':
		return one(COLON)
	case '?':
		return one(QUESTION)
	case '+':
		if l.peekByteAt(1) == '=' {
			return two(PLUSEQ, "+=")
		}
		return one(PLUS)
	case '-':
		if l.peekByteAt(1) == '=' {
			return two(MINUSEQ, "-=")
		}
		return one(MINUS)
	case '*':
		return one(STAR)
	case '/':
		return one(SLASH)
	case '%':
		return one(PERCENT)
	case '=':
		if l.peekByteAt(1) == '=' {
			return two(EQ, "==")
		}
		return one(ASSIGN)
	case '!':
		if l.peekByteAt(1) == '=' {
			return two(NEQ, "!=")
		}
		return one(NOT)
	case '<':
		if l.peekByteAt(1) == '=' {
			return two(LTE, "<=")
		}
		return one(LT)
	case '>':
		if l.peekByteAt(1) == '=' {
			return two(GTE, ">=")
		}
		return one(GT)
	case '&':
		if l.peekByteAt(1) == '&' {
			return two(AND, "&&")
		}
	case '|':
		if l.peekByteAt(1) == '|' {
			return two(OR, "||")
		}
	}
	return Token{}, l.errorf("unexpected character %q", string(c))
}
