// Forum: the paper's Figure 4 scenario end to end — private messages in a
// phpBB-style forum protected by multi-principal CryptDB. Bob sends Alice a
// message; each can read it while logged in; once both log out, an
// adversary with full control of the application, proxy and DBMS cannot
// decrypt it.
//
//	go run ./examples/forum
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

	run := func(sql string) *sqldb.Result {
		res, err := m.Execute(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		return res
	}

	// Figure 4's annotated schema: 2 unique annotation types, 3 uses.
	run("PRINCTYPE physical_user EXTERNAL")
	run("PRINCTYPE puser, msg")
	run(`CREATE TABLE users (userid INT, username VARCHAR(255),
		(username physical_user) SPEAKS FOR (userid puser))`)
	run(`CREATE TABLE privmsgs_to (msgid INT, rcpt_id INT, sender_id INT,
		(sender_id puser) SPEAKS FOR (msgid msg),
		(rcpt_id puser) SPEAKS FOR (msgid msg))`)
	run(`CREATE TABLE privmsgs (msgid INT,
		subject VARCHAR(255) ENC FOR (msgid msg),
		msgtext TEXT ENC FOR (msgid msg))`)

	// Alice and Bob register (the application INSERTs their passwords
	// into cryptdb_active at login — the proxy intercepts, the DBMS
	// never sees them).
	run("INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'alice-password')")
	run("INSERT INTO users (userid, username) VALUES (1, 'Alice')")
	run("INSERT INTO cryptdb_active (username, password) VALUES ('Bob', 'bob-password')")
	run("INSERT INTO users (userid, username) VALUES (2, 'Bob')")

	// Bob sends message 5 to Alice.
	run("INSERT INTO privmsgs_to (msgid, rcpt_id, sender_id) VALUES (5, 1, 2)")
	run("INSERT INTO privmsgs (msgid, subject, msgtext) VALUES (5, 'lunch?', 'meet at noon — secret location')")

	res := run("SELECT subject, msgtext FROM privmsgs WHERE msgid = 5")
	fmt.Printf("while logged in:  subject=%q body=%q\n", res.Rows[0][0], res.Rows[0][1])

	// Bob logs out; Alice can still read her message.
	run("DELETE FROM cryptdb_active WHERE username = 'Bob'")
	res = run("SELECT msgtext FROM privmsgs WHERE msgid = 5")
	fmt.Printf("after Bob logout: body=%q (Alice's key chain still reaches msg 5)\n", res.Rows[0][0])

	// Alice logs out too. Now simulate a full compromise: the attacker
	// holds the proxy and the DBMS — and still cannot decrypt.
	run("DELETE FROM cryptdb_active WHERE username = 'Alice'")
	if _, err := m.Execute("SELECT msgtext FROM privmsgs WHERE msgid = 5"); err != nil {
		fmt.Printf("after all logout: decryption fails as designed: %v\n", err)
	} else {
		log.Fatal("SECURITY BUG: message readable with no user logged in")
	}

	fmt.Println("\nserver-side key tables (only wrapped keys, no secrets):")
	for _, tn := range []string{"cryptdb_access_keys", "cryptdb_external_keys"} {
		r, _ := server.ExecSQL("SELECT COUNT(*) FROM " + tn)
		fmt.Printf("  %s: %v rows\n", tn, r.Rows[0][0])
	}
}
