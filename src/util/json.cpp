#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

#include "util/error.h"
#include "util/strings.h"

namespace tsg {

namespace {

/// RFC 8259 whitespace: space, tab, line feed and carriage return only.
bool is_space(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
/// U+0000..U+001F, which a string may only carry escaped.
bool is_control(char c) { return static_cast<unsigned char>(c) < 0x20; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_number_char(char c) { return is_digit(c) || (c != '\0' && std::strchr("+-.eE", c)); }

struct cursor {
    const std::string& text;
    const std::string& context;
    std::size_t pos = 0;

    /// Diagnostics are built only here, after a check has failed, so the
    /// success path allocates nothing but the document itself.
    [[noreturn]] void fail(const std::string& what) const { throw error(context + ": " + what); }
    [[noreturn]] void fail_at(const std::string& what, std::size_t at) const
    {
        fail(what + " at offset " + std::to_string(at));
    }

    void skip_ws()
    {
        while (pos < text.size() && is_space(text[pos])) ++pos;
    }
    char peek()
    {
        skip_ws();
        if (pos == text.size()) fail("unexpected end of JSON");
        return text[pos];
    }
    /// The reported offset is the one before the whitespace skip.
    void expect(char c)
    {
        const std::size_t at = pos;
        if (peek() != c) fail_at(std::string("expected '") + c + "'", at);
        ++pos;
    }

    /// Four hex digits of a \uXXXX escape whose backslash is at `at`.
    unsigned hex4(std::size_t at)
    {
        unsigned value = 0;
        const char* p = text.data() + pos;
        if (text.size() - pos < 4 || std::from_chars(p, p + 4, value, 16).ptr != p + 4)
            fail_at("invalid escape", at);
        pos += 4;
        return value;
    }
};

/// Decodes the \uXXXX escape whose backslash is at `at` (cursor past the
/// 'u'); a UTF-16 surrogate must come as a high-low pair.
void append_code_point(cursor& in, std::size_t at, std::string& out)
{
    unsigned cp = in.hex4(at);
    if (cp >= 0xDC00 && cp <= 0xDFFF) in.fail_at("invalid escape", at);
    if (cp >= 0xD800 && cp <= 0xDBFF) {
        if (in.text.compare(in.pos, 2, "\\u") != 0) in.fail_at("invalid escape", at);
        in.pos += 2;
        const unsigned low = in.hex4(at);
        if (low < 0xDC00 || low > 0xDFFF) in.fail_at("invalid escape", at);
        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: a lead byte with the top bits, then 6-bit continuation bytes.
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr unsigned lead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out += static_cast<char>(lead[tail] | cp >> 6 * tail);
    for (int i = tail - 1; i >= 0; --i) out += static_cast<char>(0x80 | (cp >> 6 * i & 0x3F));
}

std::string parse_string(cursor& in)
{
    in.expect('"');
    const std::string& text = in.text;
    std::string out;
    while (true) {
        const std::size_t run = in.pos; // copy up to the next '"', '\' or control byte
        while (in.pos < text.size() && text[in.pos] != '"' && text[in.pos] != '\\' &&
               !is_control(text[in.pos]))
            ++in.pos;
        out.append(text, run, in.pos - run);
        if (in.pos == text.size()) in.fail("unterminated string");
        if (is_control(text[in.pos])) in.fail_at("unescaped control character in string", in.pos);
        if (text[in.pos++] == '"') return out;
        if (in.pos == text.size()) in.fail("dangling escape");
        static constexpr std::string_view escapes = "\"\\/bfnrt", decoded = "\"\\/\b\f\n\r\t";
        const char e = text[in.pos++];
        if (const std::size_t i = escapes.find(e); i != escapes.npos)
            out += decoded[i];
        else if (e == 'u')
            append_code_point(in, in.pos - 2, out);
        else
            in.fail_at("invalid escape", in.pos - 2);
    }
}

/// RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
bool valid_number(const char* p, const char* end)
{
    const auto digits = [&] {
        const char* from = p;
        while (p < end && is_digit(*p)) ++p;
        return p > from;
    };
    const auto take = [&](char a, char b) { return p < end && (*p == a || *p == b) && ++p; };
    take('-', '-');
    if (!take('0', '0') && !digits()) return false;
    if (take('.', '.') && !digits()) return false;
    if (take('e', 'E')) {
        take('+', '-');
        if (!digits()) return false;
    }
    return p == end;
}

json_value parse_value(cursor& in)
{
    json_value v;
    const char c = in.peek();
    if (c == '{' || c == '[') {
        const bool object = c == '{';
        const char close = object ? '}' : ']';
        in.expect(c);
        v.k = object ? json_value::kind::object_v : json_value::kind::array_v;
        if (in.peek() != close) {
            while (true) {
                if (object) {
                    std::string key = parse_string(in);
                    in.expect(':');
                    v.members.emplace_back(std::move(key), parse_value(in));
                } else {
                    v.items.push_back(parse_value(in));
                }
                if (in.peek() != ',') break;
                in.expect(',');
            }
        }
        in.expect(close);
        return v;
    }
    if (c == '"') return json_value::string(parse_string(in));
    if (in.text.compare(in.pos, 4, "true") == 0 || in.text.compare(in.pos, 5, "false") == 0) {
        v = json_value::boolean_value(c == 't');
        in.pos += v.boolean ? 4 : 5;
        return v;
    }
    if (in.text.compare(in.pos, 4, "null") == 0) {
        in.pos += 4;
        return v;
    }
    const std::size_t start = in.pos;
    while (in.pos < in.text.size() && is_number_char(in.text[in.pos])) ++in.pos;
    if (!valid_number(in.text.data() + start, in.text.data() + in.pos))
        in.fail("malformed JSON value");
    return json_value::raw_number(in.text.substr(start, in.pos - start));
}

json_value of_kind(json_value::kind k)
{
    json_value v;
    v.k = k;
    return v;
}

void append_quoted(std::string& out, const std::string& s)
{
    static constexpr char hex[] = "0123456789abcdef";
    out += '"';
    std::size_t run = 0; // unescaped bytes are copied in runs
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default: // every other control character
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xF];
            break;
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

} // namespace

const json_value* json_value::find(const std::string& key) const
{
    for (const auto& [name, value] : members)
        if (name == key) return &value;
    return nullptr;
}

json_value json_value::null() { return {}; }

json_value json_value::boolean_value(bool b)
{
    json_value v = of_kind(kind::bool_v);
    v.boolean = b;
    return v;
}

json_value json_value::number(std::int64_t v) { return raw_number(std::to_string(v)); }

json_value json_value::number(std::uint64_t v) { return raw_number(std::to_string(v)); }

json_value json_value::number(double v, int decimals)
{
    if (!std::isfinite(v)) return null(); // JSON has no inf/nan literal
    return raw_number(format_double(v, decimals));
}

json_value json_value::raw_number(std::string spelling)
{
    json_value v = of_kind(kind::number_v);
    v.text = std::move(spelling);
    return v;
}

json_value json_value::string(std::string s)
{
    json_value v = of_kind(kind::string_v);
    v.text = std::move(s);
    return v;
}

json_value json_value::array() { return of_kind(kind::array_v); }

json_value json_value::object() { return of_kind(kind::object_v); }

json_value& json_value::set(std::string key, json_value v)
{
    members.emplace_back(std::move(key), std::move(v));
    return members.back().second;
}

json_value& json_value::push(json_value v)
{
    items.push_back(std::move(v));
    return items.back();
}

bool json_value::operator==(const json_value& other) const
{
    if (k != other.k) return false;
    switch (k) {
    case kind::null_v: return true;
    case kind::bool_v: return boolean == other.boolean;
    case kind::number_v:
    case kind::string_v: return text == other.text;
    case kind::array_v: return items == other.items;
    case kind::object_v: return members == other.members;
    }
    return false;
}

void json_value::write(std::string& out) const
{
    switch (k) {
    case kind::null_v: out += "null"; break;
    case kind::bool_v: out += boolean ? "true" : "false"; break;
    case kind::number_v: out += text; break;
    case kind::string_v: append_quoted(out, text); break;
    case kind::array_v:
        out += '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i) out += ", ";
            items[i].write(out);
        }
        out += ']';
        break;
    case kind::object_v:
        out += '{';
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (i) out += ", ";
            append_quoted(out, members[i].first);
            out += ": ";
            members[i].second.write(out);
        }
        out += '}';
        break;
    }
}

std::string json_value::write() const
{
    std::string out;
    write(out);
    return out;
}

json_value json_parse(const std::string& text, const std::string& context)
{
    cursor in{text, context};
    json_value v = parse_value(in);
    in.skip_ws();
    if (in.pos != text.size()) in.fail("trailing garbage after the document");
    return v;
}

std::string json_quote(const std::string& s)
{
    std::string out;
    append_quoted(out, s);
    return out;
}

} // namespace tsg
