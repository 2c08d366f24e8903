package pmodel

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a recovery invariant over one durable state: a boolean formula
// whose leaves compare variables and integer literals. The grammar, in
// ascending precedence:
//
//	expr := or ( "->" expr )?          implication, right-associative
//	or   := and ( "||" and )*
//	and  := unary ( "&&" unary )*
//	unary:= "!" unary | "(" expr ")" | "true" | "false" | cmp
//	cmp  := operand ("==" | "!=" | "<=" | ">=" | "<" | ">") operand
//
// Operands are variable names or unsigned integers (decimal or 0x hex).
// Invariants are pure: evaluation reads the durable value vector and
// nothing else, so a violated state is a complete, replayable witness.
type Expr struct {
	op   exprOp
	l, r *Expr // operands of not/and/or/imp (not uses l only)
	cmp  cmpOp // for opCmp
	lv   operand
	rv   operand
	lit  bool // for opLit
}

type exprOp uint8

const (
	opCmp exprOp = iota
	opLit
	opNot
	opAnd
	opOr
	opImp
)

type cmpOp uint8

const (
	cmpEq cmpOp = iota
	cmpNe
	cmpLe
	cmpGe
	cmpLt
	cmpGt
)

// operand is a comparison leaf: a variable index or a literal.
type operand struct {
	isVar bool
	v     uint8
	k     uint64
}

func (o operand) value(vals []uint64) uint64 {
	if o.isVar {
		return vals[o.v]
	}
	return o.k
}

// Eval evaluates the invariant against a durable value vector indexed
// like Program.Vars.
func (e *Expr) Eval(vals []uint64) bool {
	switch e.op {
	case opCmp:
		a, b := e.lv.value(vals), e.rv.value(vals)
		switch e.cmp {
		case cmpEq:
			return a == b
		case cmpNe:
			return a != b
		case cmpLe:
			return a <= b
		case cmpGe:
			return a >= b
		case cmpLt:
			return a < b
		default:
			return a > b
		}
	case opLit:
		return e.lit
	case opNot:
		return !e.l.Eval(vals)
	case opAnd:
		return e.l.Eval(vals) && e.r.Eval(vals)
	case opOr:
		return e.l.Eval(vals) || e.r.Eval(vals)
	default: // opImp
		return !e.l.Eval(vals) || e.r.Eval(vals)
	}
}

// ParseExpr parses an invariant. resolve maps a variable name to its
// index, and may allocate a new index (the DSL declares variables on
// first use, in the invariant as much as in an op).
func ParseExpr(src string, resolve func(name string) (uint8, error)) (*Expr, error) {
	p := &exprParser{src: src, resolve: resolve}
	p.next()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("pmodel: invariant %q: unexpected %q", src, p.lit)
	}
	return e, nil
}

type exprToken uint8

const (
	tokEOF exprToken = iota
	tokIdent
	tokNumber
	tokOp // operator or paren, spelled in lit
	tokBad
)

type exprParser struct {
	src     string
	pos     int
	tok     exprToken
	lit     string
	resolve func(string) (uint8, error)
}

func isIdentRune(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case !first && (c >= '0' && c <= '9' || c == '.'):
		return true
	}
	return false
}

func (p *exprParser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	if p.pos >= len(p.src) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.src[p.pos]
	switch {
	case isIdentRune(c, true):
		start := p.pos
		for p.pos < len(p.src) && isIdentRune(p.src[p.pos], false) {
			p.pos++
		}
		p.tok, p.lit = tokIdent, p.src[start:p.pos]
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' ||
			p.src[p.pos] == 'x' || p.src[p.pos] == 'X' ||
			p.src[p.pos] >= 'a' && p.src[p.pos] <= 'f' ||
			p.src[p.pos] >= 'A' && p.src[p.pos] <= 'F') {
			p.pos++
		}
		p.tok, p.lit = tokNumber, p.src[start:p.pos]
	default:
		for _, op := range [...]string{"->", "==", "!=", "<=", ">=", "&&", "||", "<", ">", "!", "(", ")"} {
			if strings.HasPrefix(p.src[p.pos:], op) {
				p.pos += len(op)
				p.tok, p.lit = tokOp, op
				return
			}
		}
		p.tok, p.lit = tokBad, string(c)
	}
}

func (p *exprParser) accept(op string) bool {
	if p.tok == tokOp && p.lit == op {
		p.next()
		return true
	}
	return false
}

func (p *exprParser) parseExpr() (*Expr, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.accept("->") {
		r, err := p.parseExpr() // right-associative
		if err != nil {
			return nil, err
		}
		return &Expr{op: opImp, l: l, r: r}, nil
	}
	return l, nil
}

func (p *exprParser) parseOr() (*Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Expr{op: opOr, l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (*Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Expr{op: opAnd, l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseUnary() (*Expr, error) {
	if p.accept("!") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Expr{op: opNot, l: e}, nil
	}
	if p.accept("(") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, fmt.Errorf("pmodel: invariant %q: missing )", p.src)
		}
		return e, nil
	}
	if p.tok == tokIdent && (p.lit == "true" || p.lit == "false") {
		lit := p.lit == "true"
		p.next()
		return &Expr{op: opLit, lit: lit}, nil
	}
	return p.parseCmp()
}

func (p *exprParser) parseCmp() (*Expr, error) {
	lv, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	var c cmpOp
	switch {
	case p.accept("=="):
		c = cmpEq
	case p.accept("!="):
		c = cmpNe
	case p.accept("<="):
		c = cmpLe
	case p.accept(">="):
		c = cmpGe
	case p.accept("<"):
		c = cmpLt
	case p.accept(">"):
		c = cmpGt
	default:
		return nil, fmt.Errorf("pmodel: invariant %q: expected comparison, got %q", p.src, p.lit)
	}
	rv, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &Expr{op: opCmp, cmp: c, lv: lv, rv: rv}, nil
}

func (p *exprParser) parseOperand() (operand, error) {
	switch p.tok {
	case tokIdent:
		idx, err := p.resolve(p.lit)
		if err != nil {
			return operand{}, fmt.Errorf("pmodel: invariant %q: %v", p.src, err)
		}
		p.next()
		return operand{isVar: true, v: idx}, nil
	case tokNumber:
		k, err := strconv.ParseUint(p.lit, 0, 64)
		if err != nil {
			return operand{}, fmt.Errorf("pmodel: invariant %q: bad number %q", p.src, p.lit)
		}
		p.next()
		return operand{k: k}, nil
	default:
		return operand{}, fmt.Errorf("pmodel: invariant %q: expected variable or number, got %q", p.src, p.lit)
	}
}
