// Package sqlparser implements the SQL front-end of the CryptDB proxy: a
// lexer, an AST and a recursive-descent parser for the SQL subset the paper
// exercises (CREATE TABLE, SELECT with joins/aggregates/ordering, INSERT,
// UPDATE, DELETE, transactions, CREATE INDEX) plus CryptDB's schema
// annotations (PRINCTYPE, ENC FOR, SPEAKS FOR ... IF — §4.1).
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokString
	TokOp    // operators and punctuation
	TokParam // ? placeholder
)

// Token is one lexical token with its position for error reporting.
type Token struct {
	Kind TokenKind
	Text string // canonical text; keywords upper-cased
	Pos  int    // byte offset in the input
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "INDEX": true, "ON": true, "JOIN": true, "INNER": true,
	"LEFT": true, "GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "AND": true, "OR": true,
	"NOT": true, "NULL": true, "IN": true, "LIKE": true, "BETWEEN": true,
	"AS": true, "DISTINCT": true, "COUNT": true, "SUM": true, "MIN": true,
	"MAX": true, "AVG": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"ABORT": true, "DROP": true, "INT": true, "INTEGER": true, "BIGINT": true,
	"TEXT": true, "VARCHAR": true, "BLOB": true, "PRINCTYPE": true,
	"EXTERNAL": true, "ENC": true, "FOR": true, "SPEAKS": true, "IF": true,
	"IS": true, "PRIMARY": true, "KEY": true, "DEFAULT": true, "OFFSET": true,
	"TRANSACTION": true, "PLAIN": true, "MINENC": true, "UNIQUE": true,
	"EQUIJOIN": true, "OPEJOIN": true, "TRUE": true, "FALSE": true,
	"USING": true,
}

// stringEscaper writes backslash, LF, CR and TAB as the backslash escapes a
// string literal reads back.
var stringEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, "\r", `\r`, "\t", `\t`)

// EscapeString returns s with backslash, LF, CR and TAB written as \\, \n,
// \r and \t. The result holds none of LF, CR and TAB, and a string literal
// with the result between its quotes (quotes in s doubled) lexes back to s;
// cryptdb-server frames its response lines with it.
func EscapeString(s string) string { return stringEscaper.Replace(s) }

// Lexer tokenizes a SQL statement.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a Lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	ch := l.src[l.pos]

	switch {
	case isIdentStart(ch):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		upper := strings.ToUpper(text)
		if keywords[upper] {
			return Token{Kind: TokKeyword, Text: upper, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil

	case ch >= '0' && ch <= '9':
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return Token{Kind: TokInt, Text: l.src[start:l.pos], Pos: start}, nil

	case ch == '\'' || ch == '"':
		quote := ch
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("sqlparser: unterminated string at offset %d", start)
			}
			c := l.src[l.pos]
			if c == quote {
				// Doubled quote is an escaped quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
					sb.WriteByte(quote)
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			if c == '\\' && l.pos+1 < len(l.src) {
				next := l.src[l.pos+1]
				switch next {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				default:
					sb.WriteByte(next)
				}
				l.pos += 2
				continue
			}
			sb.WriteByte(c)
			l.pos++
		}

	case ch == '?':
		l.pos++
		return Token{Kind: TokParam, Text: "?", Pos: start}, nil

	default:
		// Multi-character operators first.
		for _, op := range []string{"<=", ">=", "<>", "!=", "||"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				return Token{Kind: TokOp, Text: op, Pos: start}, nil
			}
		}
		if strings.ContainsRune("(),.*=<>+-/%;&|^", rune(ch)) {
			l.pos++
			return Token{Kind: TokOp, Text: string(ch), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sqlparser: unexpected character %q at offset %d", ch, start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		switch {
		case unicode.IsSpace(rune(ch)):
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "--"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func isIdentStart(ch byte) bool {
	return ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z'
}

func isIdentPart(ch byte) bool {
	return isIdentStart(ch) || ch >= '0' && ch <= '9'
}
