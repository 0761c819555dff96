//! The JSP layer: renders [`TradeResult`]s to HTML.
//!
//! Response sizes matter: in the Clients/RAS architecture the whole page
//! crosses the high-latency path, which is what makes that architecture
//! transmit "more than 7000 bytes to the back-end server" per interaction
//! (Figure 8). The boilerplate below (masthead, navigation, styles, footer)
//! mirrors the weight of Trade2's real JSP output.

use std::fmt::Write;
use std::sync::OnceLock;

use crate::action::TradeResult;

/// Every page's head up to its title.
const BEFORE_TITLE: &str = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.01 Transitional//EN\">\n\
                            <html>\n<head>\n<title>Trade: ";

/// The constant parts of every page after the title, built once: the rest
/// of the head (styles, ticker, masthead, navigation) and the foot
/// (sidebar, market summary, footer).
struct Chrome {
    after_title: String,
    foot: String,
}

fn chrome() -> &'static Chrome {
    static CHROME: OnceLock<Chrome> = OnceLock::new();
    CHROME.get_or_init(|| Chrome {
        after_title: head_after_title(),
        foot: chrome_foot(),
    })
}

/// Starts a page titled `title` in a buffer sized for the chrome plus
/// `body_hint` bytes of content.
fn page_start(title: &str, body_hint: usize) -> String {
    let c = chrome();
    let mut s = String::with_capacity(
        BEFORE_TITLE.len() + title.len() + c.after_title.len() + body_hint + c.foot.len(),
    );
    s.push_str(BEFORE_TITLE);
    s.push_str(title);
    s.push_str(&c.after_title);
    s
}

/// Shared page chrome after the title: inline styles, ticker, masthead
/// and navigation bar.
fn head_after_title() -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("</title>\n");
    s.push_str("<meta http-equiv=\"Content-Type\" content=\"text/html; charset=iso-8859-1\">\n");
    s.push_str("<style type=\"text/css\">\n");
    s.push_str(
        "body { font-family: Times New Roman, serif; background-color: #ffffff; margin: 0; }\n\
         .masthead { background-color: #025286; color: #ffffff; font-size: 22px; padding: 10px 18px; }\n\
         .navbar { background-color: #cccccc; padding: 6px 18px; font-size: 13px; }\n\
         .navbar a { color: #025286; margin-right: 14px; text-decoration: none; font-weight: bold; }\n\
         .content { padding: 16px 22px; font-size: 14px; }\n\
         table.data { border-collapse: collapse; margin-top: 10px; }\n\
         table.data th { background-color: #025286; color: #ffffff; padding: 4px 10px; }\n\
         table.data td { border: 1px solid #999999; padding: 4px 10px; }\n\
         .field-name { font-weight: bold; color: #333333; padding-right: 12px; }\n\
         .footer { background-color: #eeeeee; color: #555555; font-size: 11px; padding: 8px 18px; }\n",
    );
    s.push_str(
        "h1 { font-size: 20px; color: #025286; border-bottom: 2px solid #025286; padding-bottom: 4px; }\n\
         .quote-up { color: #007700; font-weight: bold; }\n\
         .quote-down { color: #aa0000; font-weight: bold; }\n\
         .sidebar { float: right; width: 260px; background-color: #f4f4f4; border: 1px solid #cccccc; \
         margin: 10px; padding: 8px; font-size: 12px; }\n\
         .sidebar h2 { font-size: 14px; color: #025286; margin: 2px 0 6px 0; }\n\
         .ticker { background-color: #000033; color: #00ff66; font-family: monospace; \
         padding: 3px 18px; font-size: 12px; white-space: nowrap; overflow: hidden; }\n\
         form.quoteform { margin: 8px 0; }\n\
         form.quoteform input { border: 1px solid #025286; font-size: 12px; }\n\
         .disclaimer { font-size: 10px; color: #777777; margin-top: 6px; }\n",
    );
    s.push_str("</style>\n</head>\n<body>\n");
    // Scrolling ticker strip — present on every Trade2 page.
    s.push_str(
        "<div class=\"ticker\">s:0 10.00 &nbsp; s:1 11.00 +0.12 &nbsp; s:2 12.00 -0.08 &nbsp; \
         s:3 13.00 +0.31 &nbsp; s:4 14.00 -0.02 &nbsp; s:5 15.00 +0.19 &nbsp; s:6 16.00 +0.07 \
         &nbsp; s:7 17.00 -0.14 &nbsp; s:8 18.00 +0.22 &nbsp; s:9 19.00 -0.05 &nbsp; \
         s:10 20.00 +0.09 &nbsp; s:11 21.00 +0.41 &nbsp; s:12 22.00 -0.17 &nbsp; \
         s:13 23.00 +0.03 &nbsp; s:14 24.00 +0.11 &nbsp; TSIA 100.32 +0.40</div>\n",
    );
    s.push_str(
        "<div class=\"masthead\">Trade &mdash; an online brokerage \
         <span style=\"font-size:12px\">(sli-edge reproduction of IBM Trade2 v2.531)</span></div>\n",
    );
    s.push_str("<div class=\"navbar\">\n");
    for (label, action) in [
        ("Home", "home"),
        ("Account", "account"),
        ("Portfolio", "portfolio"),
        ("Quotes", "quote"),
        ("Buy", "buy"),
        ("Sell", "sell"),
        ("Logoff", "logout"),
    ] {
        let _ = writeln!(s, "<a href=\"/trade/app?action={action}\">{label}</a>");
    }
    s.push_str("</div>\n");
    s
}

/// Static market-summary sidebar included on every page, as Trade2's JSPs
/// include their `marketSummary.jsp` fragment.
fn market_summary_fragment() -> String {
    let mut s = String::with_capacity(2048);
    s.push_str("<div class=\"content\">\n<table class=\"data\" summary=\"market summary\">\n");
    s.push_str("<tr><th colspan=\"4\">Trade Stock Index Average (TSIA) &mdash; session snapshot</th></tr>\n");
    s.push_str("<tr><th>gainer</th><th>price</th><th>loser</th><th>price</th></tr>\n");
    for (g, gp, l, lp) in [
        (
            "s:12 Company #12 Incorporated",
            "44.10 (+2.3%)",
            "s:31 Company #31 Incorporated",
            "18.75 (-3.1%)",
        ),
        (
            "s:57 Company #57 Incorporated",
            "67.25 (+1.9%)",
            "s:88 Company #88 Incorporated",
            "12.40 (-2.6%)",
        ),
        (
            "s:03 Company #03 Incorporated",
            "13.05 (+1.4%)",
            "s:64 Company #64 Incorporated",
            "74.90 (-1.8%)",
        ),
        (
            "s:45 Company #45 Incorporated",
            "55.60 (+1.1%)",
            "s:09 Company #09 Incorporated",
            "19.10 (-1.2%)",
        ),
        (
            "s:71 Company #71 Incorporated",
            "81.35 (+0.8%)",
            "s:26 Company #26 Incorporated",
            "36.55 (-0.9%)",
        ),
    ] {
        let _ = writeln!(
            s,
            "<tr><td>{g}</td><td align=\"right\">{gp}</td><td>{l}</td><td align=\"right\">{lp}</td></tr>"
        );
    }
    s.push_str(
        "<tr><td colspan=\"4\">TSIA 100.32 (+0.4%) &nbsp; exchange volume 40,100,000 shares \
         &nbsp; advancing 61 / declining 39</td></tr>\n</table>\n</div>\n",
    );
    s
}

/// Quick-quote sidebar with a lookup form and account shortcuts — part of
/// the standard Trade2 page furniture.
fn sidebar_fragment() -> String {
    let mut s = String::with_capacity(1536);
    s.push_str("<div class=\"sidebar\">\n<h2>Quick Quote</h2>\n");
    s.push_str(
        "<form class=\"quoteform\" method=\"GET\" action=\"/trade/app\">\n\
         <input type=\"hidden\" name=\"action\" value=\"quote\">\n\
         symbol: <input type=\"text\" name=\"symbol\" size=\"8\" value=\"s:0\">\n\
         <input type=\"submit\" value=\"get quote\">\n</form>\n",
    );
    s.push_str("<h2>Shortcuts</h2>\n<ul>\n");
    for (label, action) in [
        ("View your portfolio", "portfolio"),
        ("Review account profile", "account"),
        ("Buy 100 shares", "buy"),
        ("Sell oldest holding", "sell"),
        ("Refresh home page", "home"),
    ] {
        let _ = writeln!(
            s,
            "<li><a href=\"/trade/app?action={action}\">{label}</a></li>"
        );
    }
    s.push_str(
        "</ul>\n<div class=\"disclaimer\">Market data are simulated and delayed by the \
         virtual clock. Orders execute against the shared persistent store under the \
         transactional guarantees of the deployed data-access mode.</div>\n</div>\n",
    );
    s
}

fn chrome_foot() -> String {
    let mut s = sidebar_fragment();
    s.push_str(&market_summary_fragment());
    s.push_str(
        "<div class=\"footer\">Trade2 models an online brokerage firm providing web-based \
         services such as login, buy, sell, get quote and more. This page was produced by the \
         sli-edge JSP-equivalent renderer; the data above reflect transactionally-consistent \
         entity-bean state served through the configured data-access mode (JDBC, vanilla EJB, \
         or cached SLI EJB). Quotes are delayed by the simulation's virtual clock. Past \
         performance of the simulated index is not indicative of future results; this is a \
         demonstration workload, not investment advice.<br>\
         Server: sli-edge/1.0 &middot; container: prototype J2EE (SLI, persistent and \
         transient homes) &middot; servlet engine: simulated Tomcat 4.1.12 &middot; \
         datastore: sli-datastore (DB2 7.2 stand-in)</div>\n\
         </body>\n</html>\n",
    );
    s
}

/// Renders one action's result to a full HTML page, in one buffer sized
/// up front.
pub fn render(result: &TradeResult) -> String {
    // Per-cell markup is at most 40 bytes beyond the cell text.
    let hint = 64
        + 2 * result.title.len()
        + result
            .fields
            .iter()
            .map(|(n, v)| 56 + n.len() + v.len())
            .sum::<usize>()
        + result
            .table_header
            .iter()
            .map(|h| 9 + h.len())
            .sum::<usize>()
        + result
            .table_rows
            .iter()
            .flatten()
            .map(|c| 9 + c.len())
            .sum::<usize>()
        + 16 * result.table_rows.len();
    let mut s = page_start(&result.title, hint);
    // Writing into a `String` cannot fail.
    let _ = writeln!(
        s,
        "<div class=\"content\">\n<h1>{}</h1>\n<table>",
        result.title
    );
    for (name, value) in &result.fields {
        let _ = writeln!(
            s,
            "<tr><td class=\"field-name\">{name}</td><td>{value}</td></tr>"
        );
    }
    s.push_str("</table>\n");
    if !result.table_header.is_empty() {
        s.push_str("<table class=\"data\">\n<tr>");
        for h in &result.table_header {
            let _ = write!(s, "<th>{h}</th>");
        }
        s.push_str("</tr>\n");
        for row in &result.table_rows {
            s.push_str("<tr>");
            for cell in row {
                let _ = write!(s, "<td>{cell}</td>");
            }
            s.push_str("</tr>\n");
        }
        s.push_str("</table>\n");
    }
    s.push_str("</div>\n");
    s.push_str(&chrome().foot);
    s
}

/// Renders an error page (HTTP 4xx/5xx body).
pub fn render_error(title: &str, message: &str) -> String {
    let mut s = page_start(title, 64 + title.len() + message.len());
    let _ = writeln!(
        s,
        "<div class=\"content\"><h1>{title}</h1><p>{message}</p></div>"
    );
    s.push_str(&chrome().foot);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_page_has_realistic_weight() {
        let r = TradeResult::new("Trade Home")
            .field("user", "uid:1")
            .field("balance", "10000.00");
        let html = render(&r);
        assert!(html.len() > 2_000, "page too light: {}", html.len());
        assert!(html.len() < 10_000, "page too heavy: {}", html.len());
        assert!(html.contains("<title>Trade: Trade Home</title>"));
        assert!(html.contains("uid:1"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn tables_render_rows() {
        let mut r = TradeResult::new("Portfolio").header(&["symbol", "qty"]);
        r.row(vec!["s:1".into(), "100".into()]);
        r.row(vec!["s:2".into(), "50".into()]);
        let html = render(&r);
        assert!(html.contains("<tr><td>s:1</td><td>100</td></tr>"));
        assert!(html.contains("<tr><td>s:2</td><td>50</td></tr>"));
        assert!(html.contains("<th>symbol</th>"));
    }

    #[test]
    fn error_page_renders() {
        let html = render_error("Error", "no such user");
        assert!(html.contains("no such user"));
        assert!(html.len() > 1_500, "error page too light: {}", html.len());
    }
}
