// HotCRP: the paper's Figure 6 policy — PC members must not see who
// reviewed papers they are conflicted with, even a PC chair with root on
// every server. The SPEAKS FOR ... IF NoConflict(...) annotation keeps the
// chair out of the key chain for her own paper's reviews.
//
//	go run ./examples/hotcrp
package main

import (
	"fmt"
	"log"

	"repro/internal/mp"
	"repro/internal/proxy"
	"repro/internal/sqldb"
)

func main() {
	server := sqldb.New()
	p, err := proxy.New(server, proxy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := mp.New(p)
	if err != nil {
		log.Fatal(err)
	}

	// NoConflict is the SQL function of Figure 6, implemented as a
	// proxy-side predicate over the PaperConflict table.
	m.RegisterPredicate("NoConflict", func(args []sqldb.Value) (bool, error) {
		res, err := m.Execute(
			"SELECT COUNT(*) FROM PaperConflict WHERE paperId = ? AND contactId = ?",
			args[0], args[1])
		if err != nil {
			return false, err
		}
		return res.Rows[0][0].I == 0, nil
	})

	run := func(sql string) *sqldb.Result {
		res, err := m.Execute(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		return res
	}

	run("PRINCTYPE physical_user EXTERNAL")
	run("PRINCTYPE contact, review")
	run(`CREATE TABLE ContactInfo (contactId INT, email VARCHAR(120),
		(email physical_user) SPEAKS FOR (contactId contact))`)
	run("CREATE TABLE PaperConflict (paperId INT, contactId INT)")
	run("CREATE TABLE PCMember (contactId INT)")
	run(`CREATE TABLE PaperReview (
		paperId INT,
		reviewerId INT ENC FOR (paperId review),
		commentsToPC TEXT ENC FOR (paperId review),
		(PCMember.contactId contact) SPEAKS FOR (paperId review) IF NoConflict(paperId, contactId))`)

	// The chair (contact 1) authored paper 7; reviewer (contact 2) is on
	// the PC.
	run("INSERT INTO cryptdb_active (username, password) VALUES ('chair@conf.org', 'chair-pw')")
	run("INSERT INTO ContactInfo (contactId, email) VALUES (1, 'chair@conf.org')")
	run("INSERT INTO cryptdb_active (username, password) VALUES ('reviewer@univ.edu', 'rev-pw')")
	run("INSERT INTO ContactInfo (contactId, email) VALUES (2, 'reviewer@univ.edu')")
	run("INSERT INTO PaperConflict (paperId, contactId) VALUES (7, 1)")
	run("INSERT INTO PCMember (contactId) VALUES (1), (2)")

	// Reviewer 2 reviews the chair's paper 7.
	run("INSERT INTO PaperReview (paperId, reviewerId, commentsToPC) VALUES (7, 2, 'solid work, accept')")

	res := run("SELECT reviewerId, commentsToPC FROM PaperReview WHERE paperId = 7")
	fmt.Printf("reviewer logged in: reviewerId=%v comments=%q\n", res.Rows[0][0], res.Rows[0][1])

	// Reviewer logs out; only the conflicted chair remains. Even with
	// complete access to application, proxy and DBMS, the chair cannot
	// learn the review or the reviewer's identity.
	run("DELETE FROM cryptdb_active WHERE username = 'reviewer@univ.edu'")
	if _, err := m.Execute("SELECT reviewerId FROM PaperReview WHERE paperId = 7"); err != nil {
		fmt.Printf("conflicted chair:   blocked as designed: %v\n", err)
	} else {
		log.Fatal("SECURITY BUG: chair read a conflicted review")
	}

	// A non-conflicted paper remains readable by the chair.
	run("INSERT INTO cryptdb_active (username, password) VALUES ('reviewer@univ.edu', 'rev-pw')")
	run("INSERT INTO PaperReview (paperId, reviewerId, commentsToPC) VALUES (8, 2, 'needs work')")
	run("DELETE FROM cryptdb_active WHERE username = 'reviewer@univ.edu'")
	res = run("SELECT commentsToPC FROM PaperReview WHERE paperId = 8")
	fmt.Printf("unconflicted paper: comments=%q (chair may read paper 8)\n", res.Rows[0][0])
}
