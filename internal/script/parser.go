package script

import (
	"fmt"
	"strconv"
)

// maxNesting bounds the parser's recursion, so that no script, however
// deeply nested, can overflow the goroutine stack (a fatal error, not a
// panic). Every statement, block, if, expression, unary operator and postfix
// chain entered counts one level: a parenthesised expression costs three,
// so about 330 nested parentheses fit.
const maxNesting = 1000

// Parse compiles SenseScript source into a Program. Tokens are lexed as the
// parser reaches them, so a script that nests too deeply fails after
// reading only as much of it as the limit allows. A lexical error is
// reported in preference to the parse error it causes.
func Parse(src string) (*Program, error) {
	p := &parser{lx: lexer{src: src, line: 1}}
	p.tok = p.lex()
	prog := &Program{}
	var err error
	for err == nil && !p.at(EOF) {
		var stmt Node
		if stmt, err = p.statement(); err == nil {
			prog.Stmts = append(prog.Stmts, stmt)
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	lx       lexer
	tok      Token // the current token
	ahead    Token // the token after it, when hasAhead
	hasAhead bool
	lexErr   error // the lexer's error; every token after it is EOF
	depth    int   // levels entered, see maxNesting
}

// lex returns the next token from the source, or EOF once the lexer fails.
func (p *parser) lex() Token {
	if p.lexErr == nil {
		tok, err := p.lx.next()
		if err == nil {
			return tok
		}
		p.lexErr = err
	}
	return Token{Kind: EOF, Line: p.lx.line}
}

func (p *parser) cur() Token     { return p.tok }
func (p *parser) at(k Kind) bool { return p.tok.Kind == k }

// peek returns the token after the current one.
func (p *parser) peek() Token {
	if p.tok.Kind == EOF {
		return p.tok
	}
	if !p.hasAhead {
		p.ahead, p.hasAhead = p.lex(), true
	}
	return p.ahead
}

func (p *parser) advance() Token {
	t := p.tok
	switch {
	case t.Kind == EOF:
	case p.hasAhead:
		p.tok, p.hasAhead = p.ahead, false
	default:
		p.tok = p.lex()
	}
	return t
}

// enter counts one level of nesting, failing past maxNesting; each enter
// that succeeds is paired with a deferred leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errorf("script nests deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) accept(k Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errorf("expected %s, found %s", k, p.cur().Kind)
	}
	return p.advance(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Line: p.cur().Line, Msg: fmt.Sprintf(format, args...)}
}

// statement parses one statement, consuming any trailing semicolon.
func (p *parser) statement() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().Kind {
	case VAR:
		return p.varDecl(true)
	case FUNCTION:
		// function name(...) {...} declaration; anonymous functions are
		// expressions handled in primary().
		if p.peek().Kind == IDENT {
			return p.funcDecl()
		}
	case IF:
		return p.ifStmt()
	case WHILE:
		return p.whileStmt()
	case FOR:
		return p.forStmt()
	case RETURN:
		tok := p.advance()
		var val Node
		if !p.at(SEMI) && !p.at(RBRACE) && !p.at(EOF) {
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			val = v
		}
		p.accept(SEMI)
		return &Return{base: base{tok.Line}, Value: val}, nil
	case BREAK:
		tok := p.advance()
		p.accept(SEMI)
		return &Break{base{tok.Line}}, nil
	case CONTINUE:
		tok := p.advance()
		p.accept(SEMI)
		return &Continue{base{tok.Line}}, nil
	case LBRACE:
		return p.block()
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	p.accept(SEMI)
	return &ExprStmt{base: base{x.line()}, X: x}, nil
}

// varDecl parses `var name [= expr]`; eatSemi controls whether the trailing
// semicolon is consumed (false inside for-headers).
func (p *parser) varDecl(eatSemi bool) (Node, error) {
	tok := p.advance() // var/let/const
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	var val Node
	if p.accept(ASSIGN) {
		val, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if eatSemi {
		p.accept(SEMI)
	}
	return &VarDecl{base: base{tok.Line}, Name: name.Text, Value: val}, nil
}

func (p *parser) funcDecl() (Node, error) {
	tok := p.advance() // function
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	fn, err := p.funcRest(tok.Line)
	if err != nil {
		return nil, err
	}
	return &FuncDecl{base: base{tok.Line}, Name: name.Text, Fn: fn}, nil
}

// funcRest parses "(params) { body }".
func (p *parser) funcRest(line int) (*FuncLit, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(RPAREN) {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		params = append(params, name.Text)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncLit{base: base{line}, Params: params, Body: body}, nil
}

func (p *parser) block() (*Block, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	tok, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	blk := &Block{base: base{tok.Line}}
	for !p.at(RBRACE) {
		if p.at(EOF) {
			return nil, p.errorf("unterminated block")
		}
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, stmt)
	}
	p.advance() // }
	return blk, nil
}

func (p *parser) ifStmt() (Node, error) {
	if err := p.enter(); err != nil { // else-if chains recurse here
		return nil, err
	}
	defer p.leave()
	tok := p.advance() // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &If{base: base{tok.Line}, Cond: cond, Then: then}
	if p.accept(ELSE) {
		if p.at(IF) {
			els, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			node.Else = els
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
	}
	return node, nil
}

func (p *parser) whileStmt() (Node, error) {
	tok := p.advance() // while
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &While{base: base{tok.Line}, Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (Node, error) {
	tok := p.advance() // for
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var init, cond, post Node
	var err error
	if !p.at(SEMI) {
		if p.at(VAR) {
			init, err = p.varDecl(false)
		} else {
			var x Node
			x, err = p.expression()
			init = &ExprStmt{base: base{tok.Line}, X: x}
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if !p.at(SEMI) {
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if !p.at(RPAREN) {
		var x Node
		x, err = p.expression()
		if err != nil {
			return nil, err
		}
		post = &ExprStmt{base: base{tok.Line}, X: x}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &For{base: base{tok.Line}, Init: init, Cond: cond, Post: post, Body: body}, nil
}

// ---- expressions (precedence climbing) ----

func (p *parser) expression() (Node, error) { return p.assignment() }

// assignment is where every expression starts, and where assignment chains
// and ternary branches recurse.
func (p *parser) assignment() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if p.at(ASSIGN) || p.at(PLUSEQ) || p.at(MINUSEQ) {
		op := p.advance()
		switch left.(type) {
		case *Ident, *Member, *Index:
		default:
			return nil, &SyntaxError{Line: op.Line, Msg: "invalid assignment target"}
		}
		val, err := p.assignment()
		if err != nil {
			return nil, err
		}
		return &Assign{base: base{op.Line}, Op: op.Kind, Target: left, Value: val}, nil
	}
	return left, nil
}

func (p *parser) ternary() (Node, error) {
	cond, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	if !p.accept(QUESTION) {
		return cond, nil
	}
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	els, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &Ternary{base: base{cond.line()}, Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) logicalOr() (Node, error)  { return p.binary(p.logicalAnd, OR) }
func (p *parser) logicalAnd() (Node, error) { return p.binary(p.equality, AND) }
func (p *parser) equality() (Node, error)   { return p.binary(p.comparison, EQ, NEQ) }
func (p *parser) comparison() (Node, error) { return p.binary(p.additive, LT, GT, LTE, GTE) }
func (p *parser) additive() (Node, error)   { return p.binary(p.multiplicative, PLUS, MINUS) }
func (p *parser) multiplicative() (Node, error) {
	return p.binary(p.unary, STAR, SLASH, PERCENT)
}

func (p *parser) binary(next func() (Node, error), ops ...Kind) (Node, error) {
	left, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(op) {
				tok := p.advance()
				right, err := next()
				if err != nil {
					return nil, err
				}
				left = &Binary{base: base{tok.Line}, Op: op, L: left, R: right}
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *parser) unary() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.at(NOT) || p.at(MINUS) {
		tok := p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{base: base{tok.Line}, Op: tok.Kind, X: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(LPAREN):
			tok := p.advance()
			var args []Node
			for !p.at(RPAREN) {
				arg, err := p.expression()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if !p.accept(COMMA) {
					break
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			x = &Call{base: base{tok.Line}, Fn: x, Args: args}
		case p.at(DOT):
			tok := p.advance()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &Member{base: base{tok.Line}, X: x, Name: name.Text}
		case p.at(LBRACKET):
			tok := p.advance()
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACKET); err != nil {
				return nil, err
			}
			x = &Index{base: base{tok.Line}, X: x, Key: key}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Node, error) {
	tok := p.cur()
	switch tok.Kind {
	case NUMBER:
		p.advance()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, &SyntaxError{Line: tok.Line, Msg: fmt.Sprintf("bad number %q", tok.Text)}
		}
		return &NumberLit{base: base{tok.Line}, Value: v}, nil
	case STRING:
		p.advance()
		return &StringLit{base: base{tok.Line}, Value: tok.Text}, nil
	case TRUE, FALSE:
		p.advance()
		return &BoolLit{base: base{tok.Line}, Value: tok.Kind == TRUE}, nil
	case NULL:
		p.advance()
		return &NullLit{base{tok.Line}}, nil
	case IDENT:
		p.advance()
		return &Ident{base: base{tok.Line}, Name: tok.Text}, nil
	case LPAREN:
		p.advance()
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	case FUNCTION:
		p.advance()
		return p.funcRest(tok.Line)
	case LBRACKET:
		p.advance()
		arr := &ArrayLit{base: base{tok.Line}}
		for !p.at(RBRACKET) {
			el, err := p.expression()
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, el)
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
		return arr, nil
	case LBRACE:
		p.advance()
		obj := &ObjectLit{base: base{tok.Line}}
		for !p.at(RBRACE) {
			var key string
			switch p.cur().Kind {
			case IDENT, STRING:
				key = p.advance().Text
			default:
				return nil, p.errorf("expected property name, found %s", p.cur().Kind)
			}
			if _, err := p.expect(COLON); err != nil {
				return nil, err
			}
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			obj.Keys = append(obj.Keys, key)
			obj.Values = append(obj.Values, val)
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RBRACE); err != nil {
			return nil, err
		}
		return obj, nil
	}
	return nil, p.errorf("unexpected %s", tok.Kind)
}
