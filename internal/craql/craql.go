// Package craql implements CrAQL, the small declarative language for
// acquisitional queries that the paper calls for ("enables declarative
// specification of data acquisition queries"). The grammar is:
//
//	statement := ["EXPLAIN"] query
//	query     := "ACQUIRE" attr "FROM" "RECT" "(" num "," num "," num "," num ")" "RATE" num
//
// e.g.
//
//	ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10
//	EXPLAIN ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10
//
// An EXPLAIN statement does not acquire anything: the engine prices the
// query's candidate merge topologies with the cost-based planner and
// returns the comparison table instead of submitting the query; submission
// itself prices nothing (see internal/planner and DESIGN.md, "Planning and
// adaptivity").
//
// Keywords are case-insensitive; attribute names are case-sensitive
// identifiers. Parse errors carry the byte offset of the offending token.
// Parse handles a single executable query, ParseStatement additionally
// accepts the EXPLAIN form, and ParseScript splits ";"-separated scripts
// with "--" line comments. Format is the inverse: Parse(Format(q))
// round-trips every query.
package craql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/geom"
	"repro/internal/query"
)

// ParseError is a syntax error with its location in the input.
type ParseError struct {
	Pos int    // byte offset
	Msg string // description
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("craql: parse error at offset %d: %s", e.Pos, e.Msg)
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokComma
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9'):
		for l.pos < len(l.src) && strings.ContainsRune("+-.eE0123456789", rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) {
			r := rune(l.src[l.pos])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
				break
			}
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, &ParseError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}

type parser struct {
	lex lexer
	cur token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if p.cur.kind != tokIdent || !strings.EqualFold(p.cur.text, kw) {
		return &ParseError{Pos: p.cur.pos, Msg: fmt.Sprintf("expected keyword %s, got %q", kw, p.cur.text)}
	}
	return p.advance()
}

func (p *parser) expectKind(k tokenKind, what string) (token, error) {
	if p.cur.kind != k {
		return token{}, &ParseError{Pos: p.cur.pos, Msg: fmt.Sprintf("expected %s, got %q", what, p.cur.text)}
	}
	t := p.cur
	return t, p.advance()
}

func (p *parser) number(what string) (float64, error) {
	t, err := p.expectKind(tokNumber, what)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("invalid number %q", t.text)}
	}
	return v, nil
}

// Statement is one parsed CrAQL statement: an acquisitional query,
// optionally wrapped in EXPLAIN. An EXPLAIN statement asks the engine for
// the planner's cost table instead of submitting the query.
type Statement struct {
	// Explain marks the EXPLAIN form.
	Explain bool
	// Query is the parsed query (no ID; registry insertion assigns one).
	Query query.Query
}

// Parse parses one executable CrAQL query. The returned query has no ID;
// registry insertion assigns one. EXPLAIN statements are rejected here —
// callers that accept them use ParseStatement.
func Parse(src string) (query.Query, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return query.Query{}, err
	}
	if st.Explain {
		return query.Query{}, &ParseError{Pos: 0, Msg: "EXPLAIN is not executable here; submit the inner query or use an EXPLAIN-aware surface"}
	}
	return st.Query, nil
}

// ParseStatement parses one CrAQL statement, accepting both the plain query
// form and the EXPLAIN form.
func ParseStatement(src string) (Statement, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return Statement{}, err
	}
	var st Statement
	if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "EXPLAIN") {
		st.Explain = true
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
	}
	q, err := p.query()
	if err != nil {
		return Statement{}, err
	}
	st.Query = q
	return st, nil
}

// query parses the ACQUIRE … production from the current token to EOF.
func (p *parser) query() (query.Query, error) {
	if err := p.expectKeyword("ACQUIRE"); err != nil {
		return query.Query{}, err
	}
	attrTok, err := p.expectKind(tokIdent, "attribute name")
	if err != nil {
		return query.Query{}, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return query.Query{}, err
	}
	if err := p.expectKeyword("RECT"); err != nil {
		return query.Query{}, err
	}
	if _, err := p.expectKind(tokLParen, "'('"); err != nil {
		return query.Query{}, err
	}
	var coords [4]float64
	for i := 0; i < 4; i++ {
		coords[i], err = p.number("coordinate")
		if err != nil {
			return query.Query{}, err
		}
		if i < 3 {
			if _, err := p.expectKind(tokComma, "','"); err != nil {
				return query.Query{}, err
			}
		}
	}
	if _, err := p.expectKind(tokRParen, "')'"); err != nil {
		return query.Query{}, err
	}
	if err := p.expectKeyword("RATE"); err != nil {
		return query.Query{}, err
	}
	rate, err := p.number("rate")
	if err != nil {
		return query.Query{}, err
	}
	if p.cur.kind != tokEOF {
		return query.Query{}, &ParseError{Pos: p.cur.pos, Msg: fmt.Sprintf("unexpected trailing input %q", p.cur.text)}
	}
	return query.Query{
		Attr:   attrTok.text,
		Region: geom.NewRect(coords[0], coords[1], coords[2], coords[3]),
		Rate:   rate,
	}, nil
}

// Format renders a query back into CrAQL syntax; Parse(Format(q)) is the
// identity on the attribute, region and rate.
func Format(q query.Query) string {
	return fmt.Sprintf("ACQUIRE %s FROM RECT(%g, %g, %g, %g) RATE %g",
		q.Attr, q.Region.MinX, q.Region.MinY, q.Region.MaxX, q.Region.MaxY, q.Rate)
}

// ParseScript parses a script of CrAQL statements separated by semicolons.
// Line comments start with "--" and run to end of line; blank statements
// (e.g. a trailing semicolon) are ignored. Error positions refer to the
// stripped statement text.
func ParseScript(src string) ([]query.Query, error) {
	var out []query.Query
	for i, stmt := range splitStatements(src) {
		trimmed := strings.TrimSpace(stmt)
		if trimmed == "" {
			continue
		}
		q, err := Parse(trimmed)
		if err != nil {
			return nil, fmt.Errorf("craql: statement %d: %w", i+1, err)
		}
		out = append(out, q)
	}
	return out, nil
}

// splitStatements removes comments and splits on semicolons.
func splitStatements(src string) []string {
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if idx := strings.Index(line, "--"); idx >= 0 {
			line = line[:idx]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	return strings.Split(clean.String(), ";")
}
