package main

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/mp"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/workload/trace"
)

// fig7 reproduces the trace schema statistics (Figure 7). The synthetic
// trace is scaled down ~100x from sql.mit.edu; ratios are what carries.
func fig7() error {
	apps := trace.GenerateTrace(12, 0.01, 1)
	s := trace.Stats(apps)
	fmt.Println("sql.mit.edu-style trace schema statistics (synthetic, ~1% scale)")
	fmt.Printf("%-18s %10s %10s %10s\n", "", "Databases", "Tables", "Columns")
	fmt.Printf("%-18s %10d %10d %10d\n", "Complete schema", s.Databases, s.Tables, s.Columns)
	fmt.Printf("%-18s %10d %10d %10d\n", "Used in query", s.UsedDatabases, s.UsedTables, s.UsedColumns)
	fmt.Printf("paper:             %10s %10s %10s\n", "8,548", "177,154", "1,244,216")
	fmt.Printf("paper (used):      %10s %10s %10s\n", "1,193", "18,162", "128,840")
	return nil
}

// appSchemas returns the annotated schemas of the three multi-principal
// case-study applications (§5), used by Figures 8 and 14.
func appSchemas() map[string][]string {
	return map[string][]string{
		"phpBB": {
			"PRINCTYPE physical_user EXTERNAL",
			"PRINCTYPE puser, grp, forum_post, forum_name, msg",
			`CREATE TABLE users (userid INT, username VARCHAR(255),
				(username physical_user) SPEAKS FOR (userid puser))`,
			`CREATE TABLE usergroup (userid INT, groupid INT,
				(userid puser) SPEAKS FOR (groupid grp))`,
			`CREATE TABLE aclgroups (groupid INT, forumid INT, optionid INT,
				(groupid grp) SPEAKS FOR (forumid forum_post) IF optionid = 20,
				(groupid grp) SPEAKS FOR (forumid forum_name) IF optionid = 14)`,
			`CREATE TABLE posts (postid INT, forumid INT,
				post TEXT ENC FOR (forumid forum_post))`,
			`CREATE TABLE forum (forumid INT,
				name VARCHAR(255) ENC FOR (forumid forum_name))`,
			`CREATE TABLE privmsgs (msgid INT,
				subject VARCHAR(255) ENC FOR (msgid msg),
				msgtext TEXT ENC FOR (msgid msg))`,
			`CREATE TABLE privmsgs_to (msgid INT, rcpt_id INT, sender_id INT,
				(sender_id puser) SPEAKS FOR (msgid msg),
				(rcpt_id puser) SPEAKS FOR (msgid msg))`,
		},
		"HotCRP": {
			"PRINCTYPE physical_user EXTERNAL",
			"PRINCTYPE contact, paper, review",
			`CREATE TABLE ContactInfo (contactId INT, email VARCHAR(120),
				(email physical_user) SPEAKS FOR (contactId contact))`,
			"CREATE TABLE PCMember (contactId INT)",
			"CREATE TABLE PaperConflict (paperId INT, contactId INT)",
			`CREATE TABLE Paper (paperId INT,
				title VARCHAR(255) ENC FOR (paperId paper),
				abstract TEXT ENC FOR (paperId paper),
				authorInformation TEXT ENC FOR (paperId paper),
				(PCMember.contactId contact) SPEAKS FOR (paperId paper))`,
			`CREATE TABLE PaperReview (paperId INT,
				reviewerId INT ENC FOR (paperId review),
				commentsToPC TEXT ENC FOR (paperId review),
				commentsToAuthor TEXT ENC FOR (paperId review),
				(PCMember.contactId contact) SPEAKS FOR (paperId review) IF NoConflict(paperId, contactId))`,
		},
		"grad-apply": {
			"PRINCTYPE physical_user EXTERNAL",
			"PRINCTYPE reviewer, candidate, letterp",
			`CREATE TABLE reviewers (reviewer_id INT, email VARCHAR(120),
				(email physical_user) SPEAKS FOR (reviewer_id reviewer))`,
			`CREATE TABLE candidates (candidate_id INT, email VARCHAR(120),
				gre_verbal INT ENC FOR (candidate_id candidate),
				gre_quant INT ENC FOR (candidate_id candidate),
				gpa INT ENC FOR (candidate_id candidate),
				statement TEXT ENC FOR (candidate_id candidate),
				(email physical_user) SPEAKS FOR (candidate_id candidate),
				(reviewers.reviewer_id reviewer) SPEAKS FOR (candidate_id candidate))`,
			`CREATE TABLE letters (letter_id INT, candidate_id INT,
				letter TEXT ENC FOR (letter_id letterp),
				writer_email VARCHAR(120),
				(writer_email physical_user) SPEAKS FOR (letter_id letterp),
				(reviewers.reviewer_id reviewer) SPEAKS FOR (letter_id letterp))`,
			`CREATE TABLE scores (candidate_id INT, reviewer_id INT,
				score INT ENC FOR (candidate_id candidate),
				comment TEXT ENC FOR (candidate_id candidate))`,
		},
	}
}

// loginLines records the source-code changes each application needs: the
// calls providing user passwords to the proxy at login/logout (§8.1).
var loginLines = map[string]int{"phpBB": 7, "HotCRP": 2, "grad-apply": 2}

// fig8 counts schema annotations and code changes (Figure 8).
func fig8() error {
	fmt.Println("programmer effort to secure applications (Figure 8)")
	fmt.Printf("%-12s %12s %8s %12s   %s\n", "Application", "Annotations", "Unique", "Login LoC", "sensitive fields")
	paper := map[string][3]string{
		"phpBB":      {"31 (11 unique)", "7 lines", "23"},
		"HotCRP":     {"29 (12 unique)", "2 lines", "22"},
		"grad-apply": {"111 (13 unique)", "2 lines", "103"},
	}
	for _, name := range []string{"phpBB", "HotCRP", "grad-apply"} {
		total, unique, sensitive, err := countAnnotations(appSchemas()[name])
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %8d %12d   %d fields\n", name, total, unique, loginLines[name], sensitive)
		p := paper[name]
		fmt.Printf("  paper:     %12s          %12s   %s fields\n", p[0], p[1], p[2])
	}
	fmt.Println("TPC-C (single-principal): 0 annotations, 0 lines (all 92 columns encrypted)")
	return nil
}

// countAnnotations parses a schema and counts annotation invocations
// (PRINCTYPE, ENC FOR, SPEAKS FOR, IF predicates), unique annotation
// shapes, and secured (ENC FOR) fields.
func countAnnotations(ddl []string) (total, unique, sensitive int, err error) {
	shapes := map[string]bool{}
	for _, q := range ddl {
		st, err := sqlparser.Parse(q)
		if err != nil {
			return 0, 0, 0, err
		}
		switch s := st.(type) {
		case *sqlparser.PrincTypeStmt:
			total++
			shapes["princtype"] = true
		case *sqlparser.CreateTableStmt:
			for _, c := range s.Cols {
				if c.EncFor != nil {
					total++
					sensitive++
					shapes["encfor:"+c.EncFor.PrincType] = true
				}
			}
			for _, sf := range s.SpeaksFor {
				total++
				shape := "speaksfor:" + sf.AType + ">" + sf.BType
				if sf.If != nil {
					total++ // the predicate counts as an annotation
					shape += ":if"
					shapes[shape+":"+sf.If.String()] = true
				}
				shapes[shape] = true
			}
		}
	}
	return total, len(shapes), sensitive, nil
}

// fig9 reproduces the steady-state onion level analysis (Figure 9).
func fig9() error {
	fmt.Println("steady-state onion levels (Figure 9); paper values in parentheses")
	fmt.Printf("%-14s %8s %8s %8s %8s | %8s %8s %8s %8s | %s\n",
		"Application", "consider", "plain", "HOM", "SEARCH", "RND", "SEARCH", "DET", "OPE", "deferred")

	paperRows := map[string][8]int{
		"phpBB":        {23, 0, 1, 0, 21, 0, 1, 1},
		"HotCRP":       {22, 0, 2, 1, 18, 1, 1, 2},
		"grad-apply":   {103, 0, 0, 2, 95, 0, 6, 2},
		"OpenEMR":      {566, 7, 0, 3, 526, 2, 12, 19},
		"MIT-6.02":     {13, 0, 0, 0, 7, 0, 4, 2},
		"PHP-calendar": {12, 2, 0, 2, 3, 2, 4, 1},
	}
	for _, prof := range trace.PaperProfiles() {
		app := trace.Generate(prof, 42)
		row, err := analysis.AnalyzeApp(app)
		if err != nil {
			return err
		}
		printFig9Row(row, paperRows[prof.Name])
	}

	// TPC-C: every column considered; derived from the actual workload.
	tpccApp, err := tpccTraceApp()
	if err != nil {
		return err
	}
	tpccRow, err := analysis.AnalyzeApp(tpccApp)
	if err != nil {
		return err
	}
	printFig9Row(tpccRow, [8]int{92, 0, 8, 0, 65, 0, 19, 8})

	// The large trace, scaled.
	apps := trace.GenerateTrace(10, 0.005, 5)
	rows, err := analysis.AnalyzeApps(apps)
	if err != nil {
		return err
	}
	agg := analysis.Aggregate("trace(0.5%)", rows)
	printFig9Row(agg, [8]int{128840, 571, 1016, 1135, 84008, 398, 35350, 8513})
	fmt.Println("(trace row compares against the paper's with-in-proxy-processing counts, scaled)")
	fmt.Println("(deferred: onions besides Eq that the query set never needed, of those declared; with no")
	fmt.Println(" a-priori plan the server holds no ciphertext of them — stronger than the RND the layer")
	fmt.Println(" columns credit them with. The paper stores every onion, so it has no such column.)")
	return nil
}

func printFig9Row(r analysis.Fig9Row, paper [8]int) {
	fmt.Printf("%-14s %8d %8d %8d %8d | %8d %8d %8d %8d | %d of %d\n",
		r.App, r.ConsiderEnc, r.NeedsPlain, r.NeedsHOM, r.NeedsSEARCH,
		r.AtRND, r.AtSEARCH, r.AtDET, r.AtOPE, r.Deferred, r.Onions)
	fmt.Printf("%-14s %8d %8d %8d %8d | %8d %8d %8d %8d |\n",
		"  (paper)", paper[0], paper[1], paper[2], paper[3], paper[4], paper[5], paper[6], paper[7])
}

// fig14 measures forum throughput under the three configurations of
// Figure 14; fig15 the per-request latency of Figure 15. Both live in
// forum.go.

// mpForum builds an annotated-forum CryptDB stack in multi-principal
// mode; every principal it creates pays its X25519 key generation inline.
func mpForum() (*mp.Manager, *sqldb.DB, error) {
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 512})
	if err != nil {
		return nil, nil, err
	}
	m, err := mp.New(p)
	if err != nil {
		return nil, nil, err
	}
	return m, db, nil
}
